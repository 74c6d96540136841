package query

import "math/bits"

// This file provides the join-graph traversal primitives behind the
// optimizer's enumeration: connected-subgraph
// (csg) enumeration by BFS-ordered neighborhood expansion, following
// Moerkotte & Neumann's EnumerateCsg, and the derived connected-split
// (csg-cmp) enumeration the dynamic program uses instead of scanning
// all 2^|s| subsets of a table set.
//
// The primitives operate on the same TableSet/Neighbors bitset
// machinery as the rest of the package: a recursion step is a handful
// of word operations (neighborhood, intersection, subset iteration via
// (sub-1)&n), and no per-emission allocation happens — the enumeration
// cost is proportional to the sets actually emitted, not to 2^n.

// EachConnectedSubset calls fn for every non-empty subset of universe
// that induces a connected subgraph of the join graph, each exactly
// once, until fn returns false. Join edges with an endpoint outside
// universe are ignored, so the traversal can be restricted to any
// region of the query (the split enumeration passes s minus its anchor
// relation). Subsets are generated from their minimum relation outward:
// start vertices are visited in descending index order and each start v
// expands only toward relations above v, which is what makes every
// connected subset appear exactly once.
//
// For a universe whose induced subgraph is disconnected, the traversal
// simply enumerates the connected subsets of each component; no subset
// spanning two components is ever produced.
func (q *Query) EachConnectedSubset(universe TableSet, fn func(TableSet) bool) {
	for u := universe; !u.Empty(); {
		v := bits.Len64(uint64(u)) - 1 // highest remaining start vertex
		start := Singleton(v)
		u = u.Minus(start)
		if !fn(start) {
			return
		}
		// Prohibit the start and everything below it: subsets with a
		// smaller minimum are generated from that smaller start instead.
		if !q.csgRec(universe, start, start|(start-1), fn) {
			return
		}
	}
}

// csgRec emits every connected subset of universe that extends s with
// relations outside the prohibited set x (EnumerateCsgRec): the
// neighborhood of s is the BFS frontier, every non-empty sub-frontier
// yields one emission, and recursion prohibits the whole frontier so no
// extension is reachable along two different frontiers.
func (q *Query) csgRec(universe, s, x TableSet, fn func(TableSet) bool) bool {
	n := q.Neighbors(s).Intersect(universe).Minus(x)
	if n.Empty() {
		return true
	}
	for sub := n; !sub.Empty(); sub = (sub - 1) & n {
		if !fn(s.Union(sub)) {
			return false
		}
	}
	for sub := n; !sub.Empty(); sub = (sub - 1) & n {
		if !q.csgRec(universe, s.Union(sub), x.Union(n), fn) {
			return false
		}
	}
	return true
}

// Adjacent returns the bitset of relations sharing a join edge with
// relation v.
func (q *Query) Adjacent(v int) TableSet { return q.adjacency[v] }

// EdgeCount returns the number of join edges with both endpoints in s —
// the density input of the enumeration's per-set heuristic. Each edge's
// adjacency bits are counted from both endpoints, so the degree sum is
// halved.
func (q *Query) EdgeCount(s TableSet) int {
	deg := 0
	for v := s; !v.Empty(); v &= v - 1 {
		deg += q.adjacency[v.First()].Intersect(s).Len()
	}
	return deg / 2
}

// MaxDegreeVertex returns the relation of s with the most join edges into
// s, breaking ties toward the lowest index (so the choice is deterministic
// and degenerates to First() on edge-regular sets). The split enumeration
// anchors here: a high-degree anchor has a large neighborhood, and every
// complement-side subset must avoid the anchor, so fewer subsets survive —
// anchoring a star at its hub makes the enumeration linear where a leaf
// anchor leaves it exponential.
func (q *Query) MaxDegreeVertex(s TableSet) int {
	best, bestDeg := s.First(), -1
	for v := s; !v.Empty(); v &= v - 1 {
		i := v.First()
		if d := q.adjacency[i].Intersect(s).Len(); d > bestDeg {
			best, bestDeg = i, d
		}
	}
	return best
}

// EachConnectedSplit calls fn for every split of s into two non-empty
// halves (sub, rest) that each induce a connected subgraph, until fn
// returns false. Like TableSet.EachSubset it visits each unordered
// split twice — as (sub, rest) and (rest, sub) — because join operators
// are asymmetric. When s itself is connected, every emitted split is
// predicate-connected (some join edge crosses it), so the enumeration
// yields exactly the csg-cmp pairs the dynamic program combines; a
// disconnected s additionally admits splits along component boundaries,
// which are Cartesian.
//
// The implementation anchors at s's maximum-degree relation: the half not
// containing the anchor is enumerated with EachConnectedSubset over
// s minus the anchor, and the anchored complement is kept only when it
// is itself connected. Compared to the 2^|s|-2 ordered subsets the
// exhaustive scan visits, the work is proportional to the connected
// subsets avoiding the anchor — linear per split for stars anchored at
// their hub, quadratic in |s| for chains and cycles.
//
// Before the complement's BFS, a DPhyp-style pruning test rejects rests
// that swallow the anchor's entire neighborhood: the complement is then
// {anchor} ∪ (unreached vertices) with the anchor isolated, hence
// disconnected — unless rest took everything, leaving the (connected)
// singleton {anchor}. The test is two word operations and skips the BFS
// for exactly the rests whose complement strands the anchor, the dominant
// failure mode on mid-density graphs.
//
// This function is the specification form of the csg-cmp split
// enumeration: the engine's candidate loop (internal/core,
// forEachCandidateGraph) inlines the same anchored traversal but
// replaces the Connected BFS on the complement with a memo-id lookup
// ("connected" and "materialized" coincide there) and re-orders the
// emissions canonically. Changes to the anchoring or degenerate-set
// handling here must be mirrored there; the differential tests in both
// packages pin the two against the brute-force subset scan.
func (q *Query) EachConnectedSplit(s TableSet, fn func(sub, rest TableSet) bool) {
	if s.Empty() || s.Single() {
		return
	}
	anchor := Singleton(q.MaxDegreeVertex(s))
	u := s.Minus(anchor)
	nbr := q.Neighbors(anchor).Intersect(s)
	q.EachConnectedSubset(u, func(rest TableSet) bool {
		if nbr.SubsetOf(rest) && rest != u {
			return true // complement isolates the anchor: disconnected
		}
		sub := s.Minus(rest)
		if !q.Connected(sub) {
			return true
		}
		return fn(sub, rest) && fn(rest, sub)
	})
}

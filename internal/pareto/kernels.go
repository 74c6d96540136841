package pareto

import (
	"math"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// The dominance scans of FlatArchive.InsertRowNear, over the sum index.
//
// A scanning insert asks two questions of the stored rows: does any row r
// satisfy r[o] <= c[o]*alpha[o] on every active objective (rejection), and
// which rows satisfy c[o] <= r[o] on every active objective (eviction)? Both
// are coordinatewise orders, and floating-point + is monotone, so they carry
// over to the rows' keys — the sum over the active objectives, added in ids
// order (FlatConfig.keys): a rejector's key is at most the thresholds' key,
// an evicted row's at least the candidate's. This is the presorting bound of
// Sort-Filter-Skyline (Chomicki et al., ICDE 2003). While an archive fills its
// rows stand in ascending key order, so each question is one binary search
// for a boundary and one contiguous run of rows: rejector scans the ranks
// whose key is at most the thresholds', downward from the boundary, where a
// rejector most often sits; evict scans the ranks from the candidate's key
// up.
//
// Three or more objectives wide, a scan puts each rank it visits to the
// rank's dominance signature first (signature.go): one word in the rank's
// record, tested against the thresholds' or the candidate's signature with one
// subtraction and one mask, computed once per scanning insert. Only a rank
// that passes has its cost row read. Buckets never fall as costs grow, so a
// rank that fails cannot answer either question, and every rank read is
// decided on the same comparisons as without the signatures: the same
// rejector, the same rows evicted. This is the grid pre-test of the skyline
// literature on top of the Sort-Filter-Skyline bound. Counted over the
// cold_w1 list (31 instances, seed 1), a round's scans of three or more
// objectives visit 8.73 M ranks and read 0.37 M cost rows of them (4.3 %),
// and the two-wide scans read 0.03 M: the sum index alone read every one of
// its 8.76 M visits, the whole-archive scans 19.90 M. FlatArchive.ScanVisits
// counts visits and reads per archive, and core's TestSignatureShare pins
// the share the signature dismisses.
//
// Two-wide the index does better than a bound. A candidate is stored only if
// no row approximately dominates it, and then evicts every row it dominates,
// so no stored row weakly dominates another — as long as costs are >= 0, where
// r <= c implies r <= c*alpha. Ranked by the first objective, strictly
// ascending, such an antichain has the second strictly descending: rejection
// is the binary search and one row, and the rows to evict are one run from
// the boundary.
//
// Three objectives and more share one loop: a rank the signature passes has
// its cost row read objective by objective, and left at the first that fails.
// A ranked row holds no NaN (its sum would be one), so "no >" is "<=" on every
// row the loop reads. Width-specialized copies of it (SETcc-style 0/1 flags
// ANDed together at three and four objectives, branch-free folds at five, six
// and nine) do not pay for their code: behind the signatures the scans read a
// cost row for only 4.3 % of the ranks they visit. On two cores, over ten
// paired cold_w1 runs, cpu_ms_per_op read 2.207 with the three- and four-wide
// copies and 2.191 without. Two-wide archives carry no signature.
//
// The rows move while an archive fills: store opens a slot at the
// candidate's rank and closes up the evicted rows, and FlatArchive.Seal puts
// them back in storage order once, when they are read. A key that orders
// nothing — a NaN sum, or two-wide a NaN or negative cost — sends the archive
// to insertGeneric for good (FlatArchive.generic): anyRowLeqGeneric and
// evictGeneric below, the original early-exit loops over the whole archive in
// storage order. They are also the differential oracle:
// TestKernelMatchesGenericOracle, TestHintMatchesGenericOracle,
// TestIndexEdgeStreams and FuzzFlatInsert drive streams through both paths and
// demand bit-identical archives and counters after every insert, and an index
// whose every key and signature is its row's recomputed one, keys ascending;
// their streams include the signatures' bucket edges (bucketEdges).

// b2u converts a comparison result to 0/1 without a data-dependent branch
// (the compiler lowers this to a flag-materializing SETcc when inlined).
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ranksBelow returns how many ranks have a key below k: the first rank whose
// key is at least k. Both searches halve the range without a data-dependent
// branch (the comparison becomes a 0/1 flag, b2u, and masks the step), since
// which half a key falls in is a coin toss the branch predictor loses.
func (a *FlatArchive) ranksBelow(k float64) int {
	recs := a.recs
	base, n := 0, len(recs)
	for n > 1 {
		half := n >> 1
		base += half & -int(b2u(recs[base+half-1].key < k))
		n -= half
	}
	if n == 1 && recs[base].key < k {
		base++
	}
	return base
}

// ranksAtMost returns how many ranks have a key of at most k.
func (a *FlatArchive) ranksAtMost(k float64) int {
	recs := a.recs
	base, n := 0, len(recs)
	for n > 1 {
		half := n >> 1
		base += half & -int(b2u(recs[base+half-1].key <= k))
		n -= half
	}
	if n == 1 && recs[base].key <= k {
		base++
	}
	return base
}

// nanKey marks a row evict has found dominated: no ranked row has a NaN key.
var nanKey = math.NaN()

// rejector is the rejection scan: the index of a stored row within thresholds
// t on every active objective, or -1. tk is the thresholds' key; only the
// ranks whose key is at most tk are visited, from the highest down, and three
// or more objectives wide only those whose signature the thresholds' covers
// are tested on their cost rows.
func (a *FlatArchive) rejector(t *[stride]float64, tk float64) int {
	cfg := a.cfg
	p := a.ranksAtMost(tk)
	if cfg.antichain {
		// Of the rows whose first objective is within t[0], the last has the
		// least second objective.
		if p > 0 && a.costs[(p-1)*stride+cfg.o1] <= t[1] {
			return p - 1
		}
		return -1
	}
	recs, costs, ids, ts, g := a.recs[:p], a.costs, cfg.ids, cfg.thresholdSignature(t), cfg.guards
	r, tested := -1, 0
rows:
	for i := p - 1; i >= 0; i-- {
		if !sigCovers(ts, recs[i].sig, g) {
			continue
		}
		tested++
		row := costs[i*stride : i*stride+stride]
		for k, o := range ids {
			if row[o] > t[k] {
				continue rows
			}
		}
		r = i
		break
	}
	a.visited += p - max(r, 0)
	a.tested += tested
	return r
}

// evict marks the rows candidate c dominates (c <= row on every active
// objective) with a NaN key, visiting only the ranks from lo, the first whose
// key is at least c's, and returns the first it marked (the row count if
// none). Three or more objectives wide, a rank whose signature does not cover
// cs, c's signature, is passed over unread. store closes the marked rows up.
func (a *FlatArchive) evict(c *objective.Vector, cs uint64, lo int) int {
	cfg, costs, recs := a.cfg, a.costs, a.recs
	first := len(recs)
	if cfg.antichain {
		// The ranks from lo on are within c on the first objective, and their
		// second objective falls: the dominated ones are a run from lo.
		c1 := c[cfg.o1]
		for i := lo; i < len(recs) && c1 <= costs[i*stride+cfg.o1]; i++ {
			recs[i].key, first = nanKey, lo
		}
		return first
	}
	ids, g, tested := cfg.ids, cfg.guards, 0
rows:
	for i := lo; i < len(recs); i++ {
		if !sigCovers(recs[i].sig|g, cs, g) {
			continue
		}
		tested++
		row := costs[i*stride : i*stride+stride]
		for _, o := range ids {
			if c[o] > row[o] {
				continue rows
			}
		}
		recs[i].key, first = nanKey, min(first, i)
	}
	a.visited += len(recs) - lo
	a.tested += tested
	return first
}

// store ranks candidate c, key ck and signature cs, at lo — no rank before lo
// has a key of ck or more, none from lo on a smaller one — and drops the rows
// evict marked from first on: the ranks from lo to first move up one, into
// the first marked slot, and the unmarked ranks after it close up behind them.
func (a *FlatArchive) store(c *objective.Vector, e plan.Entry, ck float64, cs uint64, lo, first int) {
	n := len(a.recs)
	if first == n {
		a.recs = append(a.recs, record{})
		a.costs = append(a.costs, c[:]...)
		copy(a.recs[lo+1:], a.recs[lo:n])
		copy(a.costs[(lo+1)*stride:], a.costs[lo*stride:n*stride])
	} else {
		recs, costs := a.recs, a.costs
		copy(recs[lo+1:first+1], recs[lo:first])
		copy(costs[(lo+1)*stride:(first+1)*stride], costs[lo*stride:first*stride])
		out := first + 1
		for i := first + 1; i < n; i++ {
			if k := recs[i].key; k != k {
				continue
			}
			if out != i {
				recs[out] = recs[i]
				copy(costs[out*stride:(out+1)*stride], costs[i*stride:(i+1)*stride])
			}
			out++
		}
		a.evicted += n + 1 - out
		a.recs, a.costs = recs[:out], costs[:out*stride]
	}
	a.recs[lo] = newRecord(e, ck, int32(a.inserted), cs)
	copy(a.costs[lo*stride:(lo+1)*stride], c[:])
}

// anyRowLeqGeneric is the oracle's rejection scan: the offset of the first
// stride-9 row in costs within thresholds t on every objective of ids (no
// objective with >), or -1.
func anyRowLeqGeneric(costs []float64, ids []objective.ID, t *[stride]float64) int {
	for i := 0; i < len(costs); i += stride {
		dominates := true
		for k, o := range ids {
			if costs[i+int(o)] > t[k] {
				dominates = false
				break
			}
		}
		if dominates {
			return i
		}
	}
	return -1
}

// evictGeneric is the oracle's eviction scan: rows the candidate dominates
// (no objective of ids with c > row) are dropped, survivors are compacted in
// place preserving storage order.
func (a *FlatArchive) evictGeneric(ids []objective.ID, c *objective.Vector) {
	out := 0
	n := len(a.recs)
	for i := 0; i < n; i++ {
		base := i * stride
		dominated := true
		for _, o := range ids {
			if c[o] > a.costs[base+int(o)] {
				dominated = false
				break
			}
		}
		if dominated {
			a.evicted++
			continue
		}
		if out != i {
			copy(a.costs[out*stride:(out+1)*stride], a.costs[base:base+stride])
			a.recs[out] = a.recs[i]
		}
		out++
	}
	a.recs = a.recs[:out]
	a.costs = a.costs[:out*stride]
}

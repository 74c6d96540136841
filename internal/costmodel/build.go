package costmodel

import (
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// NewScan builds a costed scan node for relation rel. rate is the sampling
// rate for SampleScan and ignored otherwise.
func (m *Model) NewScan(rel int, alg plan.ScanAlg, rate float64) *plan.Node {
	n := &plan.Node{
		Tables:   query.Singleton(rel),
		Scan:     alg,
		Relation: rel,
	}
	if alg == plan.SampleScan {
		n.SampleRate = rate
	}
	n.Cost = m.ScanCost(rel, alg, rate)
	return n
}

// NewJoin builds a costed join node combining two sub-plans. It corresponds
// to the paper's Combine(j, p1, p2). IndexNLJoin must be built with
// NewIndexNL instead.
func (m *Model) NewJoin(alg plan.JoinAlg, dop int, left, right *plan.Node) *plan.Node {
	n := &plan.Node{
		Tables: left.Tables.Union(right.Tables),
		Join:   alg,
		Left:   left,
		Right:  right,
		DOP:    dop,
	}
	n.Cost = m.JoinCost(alg, dop, left, right)
	return n
}

// NewIndexNL builds a costed index-nested-loop join of an outer sub-plan
// with an indexed inner base relation. The inner child node is a plain
// index-scan marker for plan rendering; its cost is folded into the join's
// lookup costs rather than costed as a standalone scan.
func (m *Model) NewIndexNL(left *plan.Node, innerRel int) *plan.Node {
	inner := &plan.Node{
		Tables:   query.Singleton(innerRel),
		Scan:     plan.IndexScan,
		Relation: innerRel,
	}
	n := &plan.Node{
		Tables: left.Tables.Add(innerRel),
		Join:   plan.IndexNLJoin,
		Left:   left,
		Right:  inner,
		DOP:    1,
	}
	n.Cost = m.IndexNLCost(left, innerRel)
	return n
}

// ScanAlternatives returns every scan plan for relation rel that the plan
// space admits: a sequential scan, an index scan (when the base table has
// any index), and — when sampling is allowed — one sampling scan per
// available rate. This is the paper's "over 10 different configurations …
// for the scan" search-space extension.
func (m *Model) ScanAlternatives(rel int, allowSampling bool) []*plan.Node {
	out := []*plan.Node{m.NewScan(rel, plan.SeqScan, 0)}
	t := m.baseTable(rel)
	if m.q.Catalog().NumIndexes(t.ID) > 0 {
		out = append(out, m.NewScan(rel, plan.IndexScan, 0))
	}
	if allowSampling {
		for _, rate := range plan.SampleRates {
			out = append(out, m.NewScan(rel, plan.SampleScan, rate))
		}
	}
	return out
}

// EachScanAlternative yields every scan operator for relation rel that the
// plan space admits — the same alternatives as ScanAlternatives, but as
// (algorithm, rate, cost) triples without building Nodes. It is the
// allocation-free engine's leaf-level counterpart of JoinCostVec. Returns
// false if fn aborted the enumeration.
func (m *Model) EachScanAlternative(rel int, allowSampling bool, fn func(alg plan.ScanAlg, rate float64, cost objective.Vector) bool) bool {
	if !fn(plan.SeqScan, 0, m.ScanCost(rel, plan.SeqScan, 0)) {
		return false
	}
	t := m.baseTable(rel)
	if m.q.Catalog().NumIndexes(t.ID) > 0 {
		if !fn(plan.IndexScan, 0, m.ScanCost(rel, plan.IndexScan, 0)) {
			return false
		}
	}
	if allowSampling {
		for _, rate := range plan.SampleRates {
			if !fn(plan.SampleScan, rate, m.ScanCost(rel, plan.SampleScan, rate)) {
				return false
			}
		}
	}
	return true
}

// InnerIndexColumn returns the join column on which an index-nested-loop
// join can probe relation innerRel when joining it to the tables of outer,
// or "" if no crossing equi-join edge has an index on the inner side. The
// edges are asked in declaration order, as query.CrossingEdges lists them,
// but in place: the answer is a column, not a list.
func (m *Model) InnerIndexColumn(outer query.TableSet, innerRel int) string {
	cat := m.q.Catalog()
	tbl := m.q.Relations[innerRel].Table
	for _, e := range m.q.Edges {
		var col string
		switch {
		case e.Left == innerRel && outer.Contains(e.Right):
			col = e.LeftCol
		case e.Right == innerRel && outer.Contains(e.Left):
			col = e.RightCol
		default:
			continue
		}
		if cat.HasIndex(tbl, col) {
			return col
		}
	}
	return ""
}

package core

import (
	"moqo/internal/costmodel"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// allPlans enumerates, without any pruning, every plan for table set s in
// exactly the plan space the engine searches: splits into two connected
// halves that a join edge crosses, hash/sort-merge/block-nested-loop joins
// at every DOP, index-nested-loop joins where an inner index applies, and
// all scan alternatives at the leaves. It is the exponential oracle the
// tests compare the dynamic programs against.
func allPlans(m *costmodel.Model, opts Options, s query.TableSet) []*plan.Node {
	q := m.Query()
	if s.Single() {
		return m.ScanAlternatives(s.First(), opts.sampling())
	}
	var out []*plan.Node
	s.EachSubset(func(left, right query.TableSet) bool {
		if len(q.CrossingEdges(left, right)) == 0 || !q.Connected(left) || !q.Connected(right) {
			return true
		}
		lps := allPlans(m, opts, left)
		rps := allPlans(m, opts, right)
		if right.Single() {
			if rel := right.First(); m.InnerIndexColumn(left, rel) != "" {
				for _, pl := range lps {
					out = append(out, m.NewIndexNL(pl, rel))
				}
			}
		}
		for _, pl := range lps {
			for _, pr := range rps {
				for _, alg := range []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin} {
					for dop := 1; dop <= opts.MaxDOP; dop++ {
						out = append(out, m.NewJoin(alg, dop, pl, pr))
					}
				}
			}
		}
		return true
	})
	return out
}

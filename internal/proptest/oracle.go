package proptest

import (
	"math/bits"
	"slices"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// joinAlgs are the join operators built from two stored sub-plans; the
// index-nested-loop join, whose inner side is an index lookup on one base
// relation, is enumerated on its own.
var joinAlgs = []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin}

// exhaustive calls fn with the cost vector of every plan for m's query:
// every bushy join tree whose joins each have a join predicate across
// them (no cross products), with every join operator at every degree of
// parallelism up to maxDOP (the index-nested-loop join at 1, wherever its
// inner side is one base relation with an index on a crossing join
// column), over every scan alternative of every relation (the sampling
// scans when sampling is set). Nothing is pruned.
//
// The vectors of every proper sub-join are kept, since each combines with
// every plan of its complement; the full query's are only streamed, so the
// memory is that of the largest proper sub-join's plan space. fn must not
// retain its argument.
func exhaustive(m *costmodel.Model, maxDOP int, sampling bool, fn func(*objective.Vector)) {
	q := m.Query()
	all := q.AllTables()
	plans := make(map[query.TableSet][]objective.Vector)
	for rel := 0; rel < q.NumRelations(); rel++ {
		s := query.Singleton(rel)
		m.EachScanAlternative(rel, sampling, func(_ plan.ScanAlg, _ float64, cost objective.Vector) bool {
			plans[s] = append(plans[s], cost)
			return true
		})
	}
	var sets []query.TableSet
	for s := query.TableSet(1); s < all; s++ {
		if s&all == s && !s.Single() && q.Connected(s) {
			sets = append(sets, s)
		}
	}
	slices.SortStableFunc(sets, func(a, b query.TableSet) int {
		return bits.OnesCount64(uint64(a)) - bits.OnesCount64(uint64(b))
	})
	for _, s := range sets {
		var out []objective.Vector
		eachJoin(m, plans, s, maxDOP, func(v *objective.Vector) { out = append(out, *v) })
		plans[s] = out
	}
	if all.Single() {
		for i := range plans[all] {
			fn(&plans[all][i])
		}
		return
	}
	eachJoin(m, plans, all, maxDOP, fn)
}

// eachJoin calls fn with the cost of every plan whose root joins an
// ordered split of s into two connected halves, over the halves' plans.
func eachJoin(m *costmodel.Model, plans map[query.TableSet][]objective.Vector, s query.TableSet, maxDOP int, fn func(*objective.Vector)) {
	q := m.Query()
	var v objective.Vector
	for left := (s - 1) & s; left != 0; left = (left - 1) & s {
		right := s &^ left
		if !q.Connected(left) || !q.Connected(right) {
			continue
		}
		outer, inner := plans[left], plans[right]
		for _, alg := range joinAlgs {
			for dop := 1; dop <= maxDOP; dop++ {
				terms := m.PrepareJoin(alg, dop, left, right)
				for i := range outer {
					for j := range inner {
						terms.ApplyTo(&v, &outer[i], &inner[j])
						fn(&v)
					}
				}
			}
		}
		if right.Single() && m.InnerIndexColumn(left, right.First()) != "" {
			terms := m.PrepareIndexNL(left, right.First())
			for i := range outer {
				terms.ApplyTo(&v, &outer[i])
				fn(&v)
			}
		}
	}
}

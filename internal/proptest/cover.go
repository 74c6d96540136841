package proptest

import (
	"math"

	"moqo/internal/objective"
	"moqo/internal/query"
)

// induced returns the sub-instance of q on the relations of s: those
// relations in from-clause order, under their aliases and filters, with
// every join edge between two of them. Its plan space is that of q's
// sub-join s, and costmodel costs each plan alike in both.
func induced(q *query.Query, s query.TableSet) *query.Query {
	sub := query.New(q.Name+"/"+s.String(), q.Catalog())
	index := map[int]int{}
	for i, rel := range q.Relations {
		if s.Contains(i) {
			index[i] = sub.AddRelation(q.Catalog().Table(rel.Table).Name, rel.Alias, rel.FilterSel)
		}
	}
	for _, e := range q.Edges {
		if s.Contains(e.Left) && s.Contains(e.Right) {
			sub.AddJoin(index[e.Left], index[e.Right], e.LeftCol, e.RightCol, e.Selectivity)
		}
	}
	return sub
}

// coverFactor returns the least f such that every vector of exact has a
// row of approx at most f times it on every objective of objs — the
// precision at which approx α-covers exact. Only a zero covers a zero.
func coverFactor(approx, exact []objective.Vector, objs objective.Set) float64 {
	worst := 0.0
	for _, e := range exact {
		best := math.Inf(1)
		for _, a := range approx {
			f := 1.0
			for o := range objs.All() {
				if a[o] > e[o] {
					f = max(f, a[o]/e[o]) // +Inf when e[o] is 0
				}
			}
			best = min(best, f)
		}
		worst = max(worst, best)
	}
	return worst
}

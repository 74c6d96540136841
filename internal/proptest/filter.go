package proptest

import "moqo/internal/objective"

// paretoFilter keeps the Pareto set of the cost vectors added to it, over
// a set of objectives: a vector no other added vector dominates, each
// distinct projection onto the objectives once (the first one added). It
// holds only that running set, so an insert scans at most the set, and a
// plan space of a million vectors streams through a set of a few dozen —
// pareto.FilterPareto compares every pair of its input instead.
type paretoFilter struct {
	ids []objective.ID
	set []objective.Vector
}

// newParetoFilter returns an empty filter over objs.
func newParetoFilter(objs objective.Set) *paretoFilter {
	return &paretoFilter{ids: objs.IDs()}
}

// add offers v: it is dropped if a kept vector is at most v on every
// objective, and otherwise kept in place of every vector it dominates.
func (f *paretoFilter) add(v *objective.Vector) {
	for i := range f.set {
		if f.leq(&f.set[i], v) {
			return
		}
	}
	kept := f.set[:0]
	for i := range f.set {
		if !f.leq(v, &f.set[i]) {
			kept = append(kept, f.set[i])
		}
	}
	f.set = append(kept, *v)
}

// rows returns the Pareto set, in no particular order.
func (f *paretoFilter) rows() []objective.Vector { return f.set }

// leq reports whether a is at most b on every objective of the filter.
func (f *paretoFilter) leq(a, b *objective.Vector) bool {
	for _, o := range f.ids {
		if a[o] > b[o] {
			return false
		}
	}
	return true
}

package query

import (
	"math/bits"
	"strconv"
	"strings"
)

// TableSet is a bitset over the relations of a query (at most 64 relations;
// TPC-H needs at most 8). The dynamic programs of the optimizer iterate over
// table sets in cardinality order and enumerate splits via bit tricks.
type TableSet uint64

// NewTableSet builds a set from relation indexes.
func NewTableSet(rels ...int) TableSet {
	var s TableSet
	for _, r := range rels {
		s |= 1 << uint(r)
	}
	return s
}

// Singleton returns the set containing only relation r.
func Singleton(r int) TableSet { return 1 << uint(r) }

// FullSet returns the set of the first n relations.
func FullSet(n int) TableSet {
	if n >= 64 {
		panic("query: table set overflow")
	}
	return TableSet(1)<<uint(n) - 1
}

// Contains reports whether relation r is in the set.
func (s TableSet) Contains(r int) bool { return s&(1<<uint(r)) != 0 }

// Add returns the set with relation r added.
func (s TableSet) Add(r int) TableSet { return s | 1<<uint(r) }

// Union returns the union of two sets.
func (s TableSet) Union(t TableSet) TableSet { return s | t }

// Intersect returns the intersection of two sets.
func (s TableSet) Intersect(t TableSet) TableSet { return s & t }

// Minus returns the set difference s \ t.
func (s TableSet) Minus(t TableSet) TableSet { return s &^ t }

// Disjoint reports whether the two sets have no relation in common.
func (s TableSet) Disjoint(t TableSet) bool { return s&t == 0 }

// SubsetOf reports whether every relation of s is in t.
func (s TableSet) SubsetOf(t TableSet) bool { return s&^t == 0 }

// Len returns the number of relations in the set.
func (s TableSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set contains no relation.
func (s TableSet) Empty() bool { return s == 0 }

// Single reports whether the set contains exactly one relation.
func (s TableSet) Single() bool { return s != 0 && s&(s-1) == 0 }

// First returns the index of the lowest relation in the set; -1 if empty.
func (s TableSet) First() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// Top returns the index of the highest relation in the set; -1 if empty.
func (s TableSet) Top() int {
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Relations returns the relation indexes of the set in ascending order.
func (s TableSet) Relations() []int {
	out := make([]int, 0, s.Len())
	for v := s; v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros64(uint64(v)))
	}
	return out
}

// EachSubset calls fn for every non-empty proper subset of s, paired with
// its complement within s, in descending subset order. Each unordered
// split {a,b} is visited twice (as (a,b) and (b,a)), which is what the join
// enumeration wants: join operators can be asymmetric, so both operand
// orders must be considered. The order is the canonical split order of the
// engine: every candidate loop of internal/core emits its splits in it.
func (s TableSet) EachSubset(fn func(sub, rest TableSet) bool) {
	if s == 0 {
		return
	}
	for sub := (s - 1) & s; sub != 0; sub = (sub - 1) & s {
		if !fn(sub, s&^sub) {
			return
		}
	}
}

// String renders the set as {i,j,...}.
func (s TableSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Relations() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(r))
	}
	b.WriteByte('}')
	return b.String()
}

package objective

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// ID identifies one cost objective.
type ID int

// The nine cost objectives of the extended cost model.
const (
	TotalTime ID = iota // time until all result tuples are produced (ms)
	StartupTime
	IOLoad          // page accesses
	CPULoad         // abstract CPU work units
	Cores           // number of cores used by the plan
	DiskFootprint   // bytes of temporary disk space
	BufferFootprint // bytes of buffer memory
	Energy          // Joule
	TupleLoss       // expected fraction of lost result tuples, in [0,1]
	NumObjectives   // number of objectives; not itself an objective
)

var names = [NumObjectives]string{
	"total_time",
	"startup_time",
	"io_load",
	"cpu_load",
	"cores",
	"disk_footprint",
	"buffer_footprint",
	"energy",
	"tuple_loss",
}

var units = [NumObjectives]string{
	"ms", "ms", "pages", "units", "cores", "bytes", "bytes", "J", "fraction",
}

// String returns the snake_case name of the objective.
func (o ID) String() string {
	if o < 0 || o >= NumObjectives {
		return fmt.Sprintf("objective(%d)", int(o))
	}
	return names[o]
}

// Unit returns the measurement unit of the objective.
func (o ID) Unit() string {
	if o < 0 || o >= NumObjectives {
		return "?"
	}
	return units[o]
}

// Bounded reports whether the objective has an a-priori bounded value domain
// (currently only tuple loss, with domain [0,1]). Bounded-domain objectives
// get bounds drawn uniformly from their domain in the paper's test-case
// generator, while unbounded ones get bounds relative to the per-query
// minimum.
func (o ID) Bounded() bool { return o == TupleLoss }

// DomainMax returns the maximal value of a bounded-domain objective.
// It panics for unbounded objectives.
func (o ID) DomainMax() float64 {
	if !o.Bounded() {
		panic("objective: DomainMax on unbounded objective " + o.String())
	}
	return 1
}

// ParseID converts an objective name (as produced by String) back to its ID.
func ParseID(s string) (ID, error) {
	for i, n := range names {
		if n == s {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("unknown objective %q", s)
}

// All returns the identifiers of all nine objectives in declaration order.
func All() []ID {
	ids := make([]ID, NumObjectives)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// Set is a bitmask selecting a subset of the nine objectives. The optimizer
// compares plans only on the objectives of the active set.
type Set uint16

// NewSet builds a Set containing the given objectives.
func NewSet(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s |= 1 << uint(id)
	}
	return s
}

// AllSet is the set of all nine objectives.
func AllSet() Set { return Set(1<<uint(NumObjectives)) - 1 }

// Contains reports whether objective o is in the set.
func (s Set) Contains(o ID) bool { return s&(1<<uint(o)) != 0 }

// Add returns the set with objective o added.
func (s Set) Add(o ID) Set { return s | 1<<uint(o) }

// Remove returns the set with objective o removed.
func (s Set) Remove(o ID) Set { return s &^ (1 << uint(o)) }

// Len returns the number of objectives in the set. Like All it counts only
// the nine objectives' bits.
func (s Set) Len() int { return bits.OnesCount16(uint16(s & AllSet())) }

// All yields the objectives of the set in declaration order. It is the one
// walk over a set: it masks the set to the nine objectives' bits and
// allocates nothing, so the dominance relations, which run once per pair of
// vectors, range over it instead of building an ID slice.
func (s Set) All() iter.Seq[ID] {
	return func(yield func(ID) bool) {
		for v := s & AllSet(); v != 0; v &= v - 1 {
			if !yield(ID(bits.TrailingZeros16(uint16(v)))) {
				return
			}
		}
	}
}

// IDs returns the objectives of the set in declaration order, as a fresh
// slice; a caller that only walks the set ranges over All instead.
func (s Set) IDs() []ID { return slices.AppendSeq(make([]ID, 0, s.Len()), s.All()) }

// String renders the set as a comma-separated list of objective names.
func (s Set) String() string {
	parts := make([]string, 0, s.Len())
	for o := range s.All() {
		parts = append(parts, o.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Vector is a cost vector with one non-negative entry per objective.
// Entries for objectives outside the active set are ignored by the
// comparison operations, which all take the active Set explicitly.
type Vector [NumObjectives]float64

// Get returns the cost for objective o.
func (v Vector) Get(o ID) float64 { return v[o] }

// With returns a copy of the vector with objective o set to x.
func (v Vector) With(o ID, x float64) Vector {
	v[o] = x
	return v
}

// Add returns the component-wise sum of two vectors.
func (v Vector) Add(w Vector) Vector {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Max returns the component-wise maximum of two vectors.
func (v Vector) Max(w Vector) Vector {
	for i := range v {
		v[i] = math.Max(v[i], w[i])
	}
	return v
}

// Scale returns the vector multiplied by a non-negative constant.
func (v Vector) Scale(c float64) Vector {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Valid reports whether every entry is finite and non-negative, as the
// formal model requires ("cost values are real-valued and non-negative").
func (v Vector) Valid() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return false
		}
	}
	return true
}

// Dominates reports whether v has lower or equal cost than w in every
// objective of the active set (the relation written c1 <= c2 in the paper).
func (v Vector) Dominates(w Vector, objs Set) bool {
	for o := range objs.All() {
		if v[o] > w[o] {
			return false
		}
	}
	return true
}

// StrictlyDominates reports whether v dominates w and the two vectors are
// not equivalent on the active set.
func (v Vector) StrictlyDominates(w Vector, objs Set) bool {
	return v.Dominates(w, objs) && !v.EqualOn(w, objs)
}

// ApproxDominates reports whether v approximately dominates w with
// precision alpha >= 1: for every active objective, v's cost exceeds w's by
// at most factor alpha.
func (v Vector) ApproxDominates(w Vector, alpha float64, objs Set) bool {
	for o := range objs.All() {
		if v[o] > w[o]*alpha {
			return false
		}
	}
	return true
}

// EqualOn reports whether v and w agree on every active objective.
func (v Vector) EqualOn(w Vector, objs Set) bool {
	for o := range objs.All() {
		if v[o] != w[o] {
			return false
		}
	}
	return true
}

// String renders the vector (all nine entries) compactly.
func (v Vector) String() string {
	parts := make([]string, NumObjectives)
	for i, x := range v {
		parts[i] = fmt.Sprintf("%s=%.4g", ID(i), x)
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// FormatOn renders only the active objectives of the vector.
func (v Vector) FormatOn(objs Set) string {
	parts := make([]string, 0, objs.Len())
	for o := range objs.All() {
		parts = append(parts, fmt.Sprintf("%s=%.4g", o, v[o]))
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Precision is a per-objective approximation precision vector (every
// entry >= 1; 1 means exact). It generalizes the scalar precision of the
// paper's RTA: pruning may be coarse on tolerant objectives and exact on
// strict ones, shrinking archives without weakening the guarantee where
// it matters.
type Precision [NumObjectives]float64

// UniformPrecision returns precision alpha on the objectives of the set
// and exact precision (1) elsewhere. It allocates nothing: every RTA and IRA
// run builds one.
func UniformPrecision(alpha float64, objs Set) Precision {
	var p Precision
	for i := range p {
		p[i] = 1
	}
	for o := range objs.All() {
		p[o] = alpha
	}
	return p
}

// With returns a copy with the precision for objective o set to alpha.
func (p Precision) With(o ID, alpha float64) Precision {
	p[o] = alpha
	return p
}

// Valid reports whether every precision is at least 1 and finite (rejects
// NaN and +Inf).
func (p Precision) Valid() bool {
	for _, x := range p {
		if !(x >= 1) || math.IsInf(x, 1) {
			return false
		}
	}
	return true
}

// Max returns the largest precision over the given objectives. It allocates
// nothing.
func (p Precision) Max(objs Set) float64 {
	m := 1.0
	for o := range objs.All() {
		m = math.Max(m, p[o])
	}
	return m
}

// Root returns the component-wise n-th root — the internal per-level
// pruning precision derived from a plan-level precision, mirroring
// αi = αU^(1/|Q|) of the paper's Algorithm 2.
func (p Precision) Root(n int) Precision {
	var out Precision
	for i, x := range p {
		out[i] = math.Pow(x, 1/float64(n))
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// ApproxDominatesBy reports whether v approximately dominates w with the
// per-objective precisions of p: for every active objective o,
// v_o <= w_o * p_o.
func (v Vector) ApproxDominatesBy(w Vector, p Precision, objs Set) bool {
	for o := range objs.All() {
		if v[o] > w[o]*p[o] {
			return false
		}
	}
	return true
}

// Weights assigns a non-negative relative importance to every objective.
type Weights [NumObjectives]float64

// UniformWeights returns weight 1 on every objective of the set and 0
// elsewhere.
func UniformWeights(objs Set) Weights {
	var w Weights
	for o := range objs.All() {
		w[o] = 1
	}
	return w
}

// SingleWeight returns weight 1 on objective o alone.
func SingleWeight(o ID) Weights {
	var w Weights
	w[o] = 1
	return w
}

// With returns a copy of the weights with objective o set to x.
func (w Weights) With(o ID, x float64) Weights {
	w[o] = x
	return w
}

// Cost returns the weighted cost C_W(c) = sum_o c_o * W_o of a vector.
func (w Weights) Cost(v Vector) float64 {
	var c float64
	for i := range w {
		c += w[i] * v[i]
	}
	return c
}

// Valid reports whether every weight is finite and non-negative.
func (w Weights) Valid() bool {
	for _, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return false
		}
	}
	return true
}

// Active returns the set of objectives with non-zero weight.
func (w Weights) Active() Set {
	var s Set
	for i, x := range w {
		if x > 0 {
			s = s.Add(ID(i))
		}
	}
	return s
}

// Bounds holds a non-negative upper bound per objective; +Inf means
// unbounded (the paper's B_o = infinity convention).
type Bounds [NumObjectives]float64

// NoBounds returns a Bounds vector with every objective unbounded.
func NoBounds() Bounds {
	var b Bounds
	for i := range b {
		b[i] = math.Inf(1)
	}
	return b
}

// With returns a copy with the bound for objective o set to x.
func (b Bounds) With(o ID, x float64) Bounds {
	b[o] = x
	return b
}

// Unbounded reports whether no finite bound is set on any active objective.
// It allocates nothing.
func (b Bounds) Unbounded(objs Set) bool {
	for o := range objs.All() {
		if !math.IsInf(b[o], 1) {
			return false
		}
	}
	return true
}

// BoundedObjectives returns the active objectives that carry a finite bound.
func (b Bounds) BoundedObjectives(objs Set) []ID {
	var ids []ID
	for o := range objs.All() {
		if !math.IsInf(b[o], 1) {
			ids = append(ids, o)
		}
	}
	return ids
}

// Respects reports whether cost vector v respects the bounds on every
// active objective (v_o <= B_o for all o). It allocates nothing. SelectBest
// asks it once per frontier row, so it walks the set's bits by hand, as All
// does: compiled, a range over All adds a check of the loop's state per
// objective.
func (b Bounds) Respects(v Vector, objs Set) bool {
	for s := objs & AllSet(); s != 0; s &= s - 1 {
		if o := bits.TrailingZeros16(uint16(s)); v[o] > b[o] {
			return false
		}
	}
	return true
}

// RespectsRelaxed reports whether v respects the bounds relaxed by factor
// alpha (v <= alpha*B), the relation used in the IRA stopping condition.
// Like Respects it allocates nothing and walks the set's bits by hand: the
// IRA's stopping rule asks it once per frontier row.
func (b Bounds) RespectsRelaxed(v Vector, alpha float64, objs Set) bool {
	for s := objs & AllSet(); s != 0; s &= s - 1 {
		if o := bits.TrailingZeros16(uint16(s)); v[o] > b[o]*alpha {
			return false
		}
	}
	return true
}

// Valid reports whether every bound is non-negative (possibly +Inf).
func (b Bounds) Valid() bool {
	for _, x := range b {
		if math.IsNaN(x) || x < 0 {
			return false
		}
	}
	return true
}

package pareto

import (
	"math"
	"slices"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// FlatConfig is the pruning configuration shared by all flat archives of
// one engine run: the active objectives resolved to a plain ID slice and
// the per-objective pruning precisions aligned with it. Resolving both
// once per run is what makes FlatArchive.Insert allocation-free — the
// legacy Archive re-derived objs.IDs() (a fresh slice) inside every
// dominance check. SelectBestRows was the flat path's last caller doing the
// same, once per frontier row through Bounds.Respects, until Respects
// walked the set's bits (TestSelectBestRowsZeroAlloc).
type FlatConfig struct {
	objs   objective.Set
	ids    []objective.ID
	alpha  float64
	alphas []float64 // pruning precision per ids entry
	prec   *objective.Precision

	// kind dispatches Insert to a width-specialized dominance kernel
	// (see kernels.go); o0..o3 are ids resolved to plain ints for the
	// two- through four-wide kernels.
	kind           kernelKind
	o0, o1, o2, o3 int
}

// resolve fills the kernel-dispatch fields from ids; called by both
// constructors after ids/alphas are set.
func (c *FlatConfig) resolve() {
	c.kind = resolveKernel(c.ids)
	switch c.kind {
	case kernel2:
		c.o0, c.o1 = int(c.ids[0]), int(c.ids[1])
	case kernel3:
		c.o0, c.o1, c.o2 = int(c.ids[0]), int(c.ids[1]), int(c.ids[2])
	case kernel4:
		c.o0, c.o1, c.o2, c.o3 = int(c.ids[0]), int(c.ids[1]), int(c.ids[2]), int(c.ids[3])
	}
}

// thresholds writes the rejection thresholds of candidate v into t:
// t[k] = v[ids[k]] * alphas[k], the right-hand side of "stored row r
// approximately dominates v" (r[ids[k]] <= t[k] for every k).
func (c *FlatConfig) thresholds(v *objective.Vector, t *[stride]float64) {
	for k, o := range c.ids {
		t[k] = v[o] * c.alphas[k]
	}
}

// rowRejects reports whether one stored row approximately dominates
// candidate v — the test of the two hinted rows. It forms the same products as
// thresholds one at a time and leaves at the first objective that fails, so
// the inserts a hint answers build no threshold array (cold_w1 ops_per_s
// 147 -> 157).
func (c *FlatConfig) rowRejects(row []float64, v *objective.Vector) bool {
	for k, o := range c.ids {
		if row[o] > v[o]*c.alphas[k] {
			return false
		}
	}
	return true
}

// rowRejectsFloor is rowRejects for the gate (RejectsAll, RejectsAllNear): a
// yes there stands for candidates that were never built, so it is written
// row <= floor*alpha and not as the negation of rowRejects' > — a NaN on
// either side must fail it, where rowRejects lets a NaN candidate through.
func (c *FlatConfig) rowRejectsFloor(row []float64, floor *objective.Vector) bool {
	for k, o := range c.ids {
		if !(row[o] <= floor[o]*c.alphas[k]) {
			return false
		}
	}
	return true
}

// firstRowLeq is the rejection scan over a run of stored rows: the offset,
// within costs, of the first row within thresholds t on every active
// objective, or -1. It is the one place a rejection kernel is called from.
func (c *FlatConfig) firstRowLeq(costs []float64, t *[stride]float64, kind kernelKind) int {
	switch kind {
	case kernel2:
		return anyRowLeq2(costs, c.o0, c.o1, t[0], t[1])
	case kernel3:
		return anyRowLeq3(costs, c.o0, c.o1, c.o2, t[0], t[1], t[2])
	case kernel4:
		return anyRowLeq4(costs, c.o0, c.o1, c.o2, c.o3, t[0], t[1], t[2], t[3])
	}
	return anyRowLeqGeneric(costs, c.ids, t)
}

// NewFlatConfig builds the shared configuration for scalar-alpha pruning
// (alpha >= 1; alpha == 1 is exact Pareto pruning).
func NewFlatConfig(objs objective.Set, alpha float64) *FlatConfig {
	if alpha < 1 {
		panic("pareto: pruning precision must be >= 1")
	}
	ids := objs.IDs()
	alphas := make([]float64, len(ids))
	for i := range alphas {
		alphas[i] = alpha
	}
	c := &FlatConfig{objs: objs, ids: ids, alpha: alpha, alphas: alphas}
	c.resolve()
	return c
}

// NewFlatPrecisionConfig builds the shared configuration for per-objective
// precision pruning (the RTAVector extension).
func NewFlatPrecisionConfig(objs objective.Set, prec objective.Precision) *FlatConfig {
	if !prec.Valid() {
		panic("pareto: pruning precisions must be >= 1")
	}
	ids := objs.IDs()
	alphas := make([]float64, len(ids))
	for i, o := range ids {
		alphas[i] = prec[o]
	}
	p := prec
	c := &FlatConfig{objs: objs, ids: ids, alpha: prec.Max(objs), alphas: alphas, prec: &p}
	c.resolve()
	return c
}

// Alpha returns the scalar pruning precision (the maximum per-objective
// precision when a precision vector is configured).
func (c *FlatConfig) Alpha() float64 { return c.alpha }

// Precision returns the per-objective precision vector, or nil when the
// configuration prunes with a scalar alpha.
func (c *FlatConfig) Precision() *objective.Precision { return c.prec }

// stride is the size of one cost row in the flat backing array. Full
// nine-dimensional vectors are stored (not just the active objectives):
// the inactive entries are needed intact at materialization, and a fixed
// stride keeps row addressing a shift-free multiplication.
const stride = int(objective.NumObjectives)

// FlatArchive is the struct-of-arrays representation of a Pareto archive:
// cost vectors live in one contiguous []float64 backing array and plans
// are compact entry records instead of *plan.Node trees. Insert performs
// no allocation beyond amortized slice growth, and dominance checks walk
// a contiguous row instead of chasing node pointers.
//
// Pruning semantics are bit-for-bit those of the legacy Archive:
// approximate-dominance rejection first, then exact-dominance eviction
// with stable compaction, then append — with identical counters.
type FlatArchive struct {
	cfg     *FlatConfig
	costs   []float64 // len = len(entries) * stride
	entries []plan.Entry

	// inserted and rejected count Insert outcomes for the experiment
	// harness ("number of considered plans").
	inserted, rejected, evicted int

	// hint is the offset into costs of the row that last rejected a
	// candidate; InsertRowNear tests it before anything else. Eviction
	// compaction may leave it past the end (hence the bounds check) or on
	// another row — still a stored row, so a hit is still a valid witness. The
	// zero value names row 0. hintRejected counts the candidates rejected
	// without a scan: by this row, by the caller's second hint, or by the gate
	// on either (RejectsAll, RejectsAllNear).
	hint, hintRejected int

	// nanSeen records that a scanning insert met a NaN threshold: from then on
	// the archive may hold a NaN cost, and its scans run the generic loops
	// (scanKind).
	nanSeen bool
}

// NewFlat creates an empty flat archive sharing the run's configuration.
func NewFlat(cfg *FlatConfig) *FlatArchive { return &FlatArchive{cfg: cfg} }

// Insert offers a candidate to the archive, implementing the paper's
// Prune(P, pN, αi): if some stored plan approximately dominates the new
// cost vector the candidate is discarded; otherwise stored plans that the
// new vector (exactly) dominates are evicted and the candidate is stored.
// Returns whether the candidate was stored.
//
// Rejection is existential and changes nothing but the rejected counter, so
// which stored row witnesses it, and in which order the rows are asked, is
// unobservable. The candidate is therefore first tested against the hinted
// row alone — consecutive candidates of one table set are near-copies, so the
// row that rejected the last one rejects most of the next — then against the
// caller's second hint (InsertRowNear), and only a miss of both scans, from
// the hinted row onward and around (rejectingRow). The scans dispatch to a
// width-specialized kernel picked once per configuration (kernels.go); every
// path answers the questions insertGeneric asks, so results and counters are
// bit-identical regardless of the path taken.
func (a *FlatArchive) Insert(c objective.Vector, e plan.Entry) bool {
	return a.InsertRow(&c, e)
}

// InsertRow is Insert over a cost vector read in place: c is not retained
// (a stored candidate's costs are copied into the archive's own rows) and
// must not point into this archive. It is InsertRowNear without a second
// hint worth keeping.
func (a *FlatArchive) InsertRow(c *objective.Vector, e plan.Entry) bool {
	var near int32
	return a.InsertRowNear(c, e, &near)
}

// InsertRowNear is InsertRow with a second hint the caller owns: *near is the
// index of a stored row — any value is safe, it is bounds-checked like the
// hint, and zero names row 0 — tested only after the archive's own hint has
// missed. On a hit it becomes the hint, and a scan that ends in a rejection
// writes its row into both. The caller chooses what a slot stands for; the
// engine keeps one per inner sub-plan and operator of the split at hand, the
// key under which the last rejector changes least (worker.joinPairs). A slot
// may be shared, stale or from another archive: a row it names is tested
// before it is believed.
func (a *FlatArchive) InsertRowNear(c *objective.Vector, e plan.Entry, near *int32) bool {
	cfg := a.cfg
	if h := a.hint; h < len(a.costs) && cfg.rowRejects(a.costs[h:h+stride], c) {
		a.rejected++
		a.hintRejected++
		return false
	}
	if s := nearOffset(near); s < len(a.costs) && cfg.rowRejects(a.costs[s:s+stride], c) {
		a.hint = s
		a.rejected++
		a.hintRejected++
		return false
	}
	var t [stride]float64
	cfg.thresholds(c, &t)
	kind := a.scanKind(&t)
	if r := a.rejectingRow(&t, kind); r >= 0 {
		a.hint = r
		*near = int32(r / stride)
		a.rejected++
		return false
	}
	switch kind {
	case kernel2:
		a.evict2(cfg.o0, cfg.o1, c[cfg.o0], c[cfg.o1])
	case kernel3:
		a.evict3(cfg.o0, cfg.o1, cfg.o2, c[cfg.o0], c[cfg.o1], c[cfg.o2])
	case kernel4:
		a.evict4(cfg.o0, cfg.o1, cfg.o2, cfg.o3, c[cfg.o0], c[cfg.o1], c[cfg.o2], c[cfg.o3])
	default:
		a.evictGeneric(cfg.ids, c)
	}
	a.entries = append(a.entries, e)
	a.costs = append(a.costs, c[:]...)
	a.inserted++
	return true
}

// nearOffset is the offset into costs of the row a second hint names. A
// negative index becomes an offset past the end of any archive.
func nearOffset(near *int32) int { return int(uint32(*near)) * stride }

// RejectsAll offers n candidates at once through a floor: a vector that is,
// on every active objective, at most each of their cost vectors (or one of
// the two is NaN there). It reports whether the hinted row approximately
// dominates the floor — then it does so for each of the n, InsertRowNear
// would have rejected each on its hint test, and RejectsAll has counted
// exactly that: n rejections, n of them without a scan, the hint where it was.
// It is the hint test only, never a scan, so false means nothing: the caller
// asks RejectsAllNear, then offers the candidates one by one.
func (a *FlatArchive) RejectsAll(floor *objective.Vector, n int) bool {
	h := a.hint
	if h >= len(a.costs) || !a.cfg.rowRejectsFloor(a.costs[h:h+stride], floor) {
		return false
	}
	a.rejected += n
	a.hintRejected += n
	return true
}

// RejectsAllNear is RejectsAll on the row the second hint names, for a caller
// RejectsAll has just told no: a row that dominates the floor rejects every
// one of the n whichever hint it came from. On a yes InsertRowNear would have
// rejected each of the n on one of its two hint tests, and the row is the
// hint now, as it would be after the first of them that the old hint missed.
func (a *FlatArchive) RejectsAllNear(floor *objective.Vector, n int, near *int32) bool {
	s := nearOffset(near)
	if s >= len(a.costs) || !a.cfg.rowRejectsFloor(a.costs[s:s+stride], floor) {
		return false
	}
	a.hint = s
	a.rejected += n
	a.hintRejected += n
	return true
}

// scanKind is the kernel a scanning insert with thresholds t may use. The
// two- to four-wide kernels ask "row <= t" and "c <= row" where the generic
// loops — and rowRejects, objective.Vector.ApproxDominates and the reference
// archive — ask "no objective with >". On a NaN the two differ, and which row
// the hints happened to name would decide whether such a candidate is kept.
// So an insert whose thresholds hold a NaN on an active objective, and every
// scanning insert after it (the candidate may have been stored), runs the
// generic loops, which are the oracle's own code: width-many t[k] != t[k]
// tests per scanning insert, nothing per row. Rewriting the kernels as
// !(row > t) instead costs cold_w1 7 % (Go emits a parity fix-up per
// comparison).
func (a *FlatArchive) scanKind(t *[stride]float64) kernelKind {
	cfg := a.cfg
	if cfg.kind == kernelGeneric || a.nanSeen {
		return kernelGeneric
	}
	for k := range cfg.ids {
		if t[k] != t[k] {
			a.nanSeen = true
			return kernelGeneric
		}
	}
	return cfg.kind
}

// rejectingRow is the rejection scan InsertRowNear runs after both hints
// missed: the offset of a stored row within thresholds t on every active
// objective, or -1. Any such row is a valid witness, so the scan starts at the
// hinted row — rejectors are neighbours: the row that rejects this candidate
// sits on average half an archive away from row 0 but close to the one that
// rejected the last — and wraps around to the rows before it.
func (a *FlatArchive) rejectingRow(t *[stride]float64, kind kernelKind) int {
	h := a.hint
	if h >= len(a.costs) {
		h = 0
	}
	if r := a.cfg.firstRowLeq(a.costs[h:], t, kind); r >= 0 {
		return h + r
	}
	return a.cfg.firstRowLeq(a.costs[:h], t, kind)
}

// insertGeneric is Insert restricted to the original early-exit scalar
// loops, regardless of the configured kernel, from row 0 and with no hint —
// the differential oracle the hinted and specialized paths are tested against.
func (a *FlatArchive) insertGeneric(c objective.Vector, e plan.Entry) bool {
	var t [stride]float64
	a.cfg.thresholds(&c, &t)
	if a.cfg.firstRowLeq(a.costs, &t, kernelGeneric) >= 0 {
		a.rejected++
		return false
	}
	a.evictGeneric(a.cfg.ids, &c)
	a.entries = append(a.entries, e)
	a.costs = append(a.costs, c[:]...)
	a.inserted++
	return true
}

// Len returns the number of stored plans.
func (a *FlatArchive) Len() int { return len(a.entries) }

// EntryAt returns the i-th stored entry.
func (a *FlatArchive) EntryAt(i int32) plan.Entry { return a.entries[i] }

// CostAt returns a copy of the i-th stored cost vector.
func (a *FlatArchive) CostAt(i int32) objective.Vector {
	var v objective.Vector
	copy(v[:], a.costs[int(i)*stride:int(i)*stride+stride])
	return v
}

// CostRow returns the i-th stored cost vector in place, for read-only use
// on hot paths where CostAt's copy shows. The pointer aliases the archive's
// backing array: it is invalidated by the next Insert or Reset.
func (a *FlatArchive) CostRow(i int32) *objective.Vector {
	return (*objective.Vector)(a.costs[int(i)*stride:])
}

// Stats returns cumulative insert/reject/evict counters.
func (a *FlatArchive) Stats() (inserted, rejected, evicted int) {
	return a.inserted, a.rejected, a.evicted
}

// HintRejected returns how many of the rejected candidates were answered
// without a scan: by the hinted row, by the caller's second hint, or by the
// gate on either.
func (a *FlatArchive) HintRejected() int { return a.hintRejected }

// Frontier returns the cost vectors of the stored plans.
func (a *FlatArchive) Frontier() []objective.Vector {
	out := make([]objective.Vector, a.Len())
	for i := range out {
		out[i] = a.CostAt(int32(i))
	}
	return out
}

// Rows returns the stored cost rows (stride nine, insertion order) in
// place, for read-only scans; invalidated by the next Insert or Reset.
func (a *FlatArchive) Rows() []float64 { return a.costs }

// CanonicalOrder returns the archive's row indexes in canonical order:
// sorted by CompareCanonical, stably, so rows with identical cost vectors
// keep the archive's (deterministic) insertion order. It is the one place
// a finished frontier is ordered.
func (a *FlatArchive) CanonicalOrder() []int32 {
	order := make([]int32, a.Len())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(i, j int32) int {
		return CompareCanonical(a.CostAt(i), a.CostAt(j))
	})
	return order
}

// CompareCanonical orders two cost vectors lexicographically over all nine
// objectives — the canonical order of every extracted frontier. Sorting by
// it makes a frontier independent of how the run was scheduled, which is
// what lets a snapshot-served answer match a cold run bit for bit.
func CompareCanonical(a, b objective.Vector) int {
	for o := 0; o < stride; o++ {
		switch {
		case a[o] < b[o]:
			return -1
		case a[o] > b[o]:
			return 1
		}
	}
	return 0
}

// SelectBestRows is the paper's SelectBest(P, W, B) over a contiguous
// cost-row slice (stride nine, as stored by FlatArchive and by frontier
// snapshots): the index of the row with minimal weighted cost among those
// respecting the bounds, falling back to the minimal weighted cost overall
// when no row is within bounds. Ties break toward the earliest row, so the
// choice is deterministic. Returns -1 for no rows.
func SelectBestRows(costs []float64, w objective.Weights, b objective.Bounds, objs objective.Set) int32 {
	bestIn, bestAny := int32(-1), int32(-1)
	bestInCost, bestAnyCost := 0.0, 0.0
	n := len(costs) / stride
	for i := 0; i < n; i++ {
		var v objective.Vector
		copy(v[:], costs[i*stride:(i+1)*stride])
		c := w.Cost(v)
		if bestAny < 0 || c < bestAnyCost {
			bestAny, bestAnyCost = int32(i), c
		}
		if b.Respects(v, objs) && (bestIn < 0 || c < bestInCost) {
			bestIn, bestInCost = int32(i), c
		}
	}
	if bestIn >= 0 {
		return bestIn
	}
	return bestAny
}

// BestBy returns the index of the stored plan minimizing the given scalar
// metric (-1 for an empty archive). Ties break toward the earliest plan,
// keeping results deterministic.
func (a *FlatArchive) BestBy(scalar func(objective.Vector) float64) int32 {
	best := int32(-1)
	bestCost := math.Inf(1)
	for i := 0; i < a.Len(); i++ {
		if c := scalar(a.CostAt(int32(i))); best < 0 || c < bestCost {
			best, bestCost = int32(i), c
		}
	}
	return best
}

// SelectBest implements the paper's SelectBest(P, W, B) over the flat
// representation: the index of the plan with minimal weighted cost among
// those respecting the bounds, or — if none respects the bounds — the
// minimal weighted cost overall. Returns -1 only for an empty archive.
func (a *FlatArchive) SelectBest(w objective.Weights, b objective.Bounds) int32 {
	return SelectBestRows(a.costs, w, b, a.cfg.objs)
}

// Reset empties the archive, keeping the backing arrays (and counters and
// hint at zero) for reuse — the warm-up discipline of the zero-allocation
// tests and benchmarks. The engine never resets an archive.
func (a *FlatArchive) Reset() {
	a.costs = a.costs[:0]
	a.entries = a.entries[:0]
	a.inserted, a.rejected, a.evicted = 0, 0, 0
	a.hint, a.hintRejected, a.nanSeen = 0, 0, false
}

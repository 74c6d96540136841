package pareto

import (
	"cmp"
	"math"
	"slices"

	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// FlatConfig is the pruning configuration shared by all flat archives of
// one engine run: the active objectives resolved to a plain ID slice and
// the per-objective pruning precisions aligned with it, both resolved once
// per run, so FlatArchive.Insert indexes them instead of walking the set.
// The legacy Archive asks the objective package's dominance relations, which
// walk the set through objective.Set.All and allocate nothing either
// (objective's TestDominanceZeroAlloc); SelectBestRows asks Bounds.Respects
// once per frontier row (TestSelectBestRowsZeroAlloc).
type FlatConfig struct {
	objs   objective.Set
	ids    []objective.ID
	alphas []float64 // pruning precision per ids entry

	// antichain marks exactly two active objectives, the one width whose
	// scans differ (kernels.go): one row to reject, one run to evict. o0 and
	// o1 are its ids resolved to plain ints.
	antichain bool
	o0, o1    int

	// The dominance-signature layout (signature.go): the field width, the
	// bucket's shift, offset and top, and the fields' guard bits. All zero
	// for fewer than three active objectives.
	sigBits, sigShift uint
	sigLo, sigTop     int64
	guards            uint64
}

// resolve fills the antichain and signature fields from ids; called by
// NewFlatPrecisionConfig after ids and alphas are set.
func (c *FlatConfig) resolve() {
	c.resolveSignature()
	c.antichain = len(c.ids) == 2
	if c.antichain {
		c.o0, c.o1 = int(c.ids[0]), int(c.ids[1])
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

// keys returns the index keys of candidate v and of its thresholds t (see
// FlatArchive), and false when the index cannot answer for them. A key is the
// sum over the active objectives, added in ids order from zero, and
// floating-point + is monotone, so r <= t on every active objective implies
// key(r) <= key(t), and v <= r implies key(v) <= key(r) — unless a sum is
// NaN (a NaN cost, or +Inf and -Inf in one vector), which orders nothing.
// Two-wide, the key is the first active objective (the rows form an
// antichain, rejector), which needs every cost >= 0: a NaN or a negative
// cost is refused there.
func (c *FlatConfig) keys(v *objective.Vector, t *[stride]float64) (vk, tk float64, ok bool) {
	if c.antichain {
		x, y := v[c.o0], v[c.o1]
		return x, t[0], x >= 0 && y >= 0
	}
	for k, o := range c.ids {
		vk += v[o]
		tk += t[k]
	}
	return vk, tk, vk == vk && tk == tk
}

// NewFlatConfig builds the shared configuration for uniform pruning at alpha
// on every active objective (alpha >= 1; alpha == 1 is exact Pareto pruning).
func NewFlatConfig(objs objective.Set, alpha float64) *FlatConfig {
	return NewFlatPrecisionConfig(objs, objective.UniformPrecision(alpha, objs))
}

// NewFlatPrecisionConfig builds the shared configuration for pruning at
// prec[o] on each active objective o. It panics on a precision below 1, as
// NewFlatConfig always has (a NaN passes; Options.Normalize refuses it).
func NewFlatPrecisionConfig(objs objective.Set, prec objective.Precision) *FlatConfig {
	ids := objs.IDs()
	alphas := make([]float64, len(ids))
	for i, o := range ids {
		if prec[o] < 1 {
			panic("pareto: pruning precision must be >= 1")
		}
		alphas[i] = prec[o]
	}
	c := &FlatConfig{objs: objs, ids: ids, alphas: alphas}
	c.resolve()
	return c
}

// stride is the size of one cost row in the flat backing array. Full
// nine-dimensional vectors are stored (not just the active objectives):
// the inactive entries are needed intact at materialization, and a fixed
// stride keeps row addressing a shift-free multiplication.
const stride = int(objective.NumObjectives)

// FlatArchive is the struct-of-arrays representation of a Pareto archive:
// cost vectors live in one contiguous []float64 backing array and plans
// are compact entry records instead of *plan.Node trees. Insert performs
// no allocation beyond slice growth — none at all while the archive fits in
// the rest of its Arena chunk — and dominance checks walk a contiguous row
// instead of chasing node pointers.
//
// Pruning semantics are bit-for-bit those of the legacy Archive:
// approximate-dominance rejection first, then exact-dominance eviction
// with stable compaction, then append — with identical counters.
//
// While an archive fills, its rows stand in rank order instead: ascending by
// key (FlatConfig.keys — the active-objective sum, or two-wide the first
// active objective), each record carrying its insertion sequence. Only a row
// whose key is at most the thresholds' can reject a candidate, and only one
// whose key is at least the candidate's can be evicted by it, so a scan visits
// one contiguous run of ranks (kernels.go). Storage order — the stored rows by
// insertion sequence, as the legacy Archive keeps them — is what every reader
// sees: Seal restores it, the readers below call it, and the next insert
// re-ranks the rows. The engine seals each archive once, when its set is
// done, before any other worker reads it.
type FlatArchive struct {
	cfg   *FlatConfig
	costs []float64 // len = len(recs) * stride
	recs  []record

	// inserted and rejected count Insert outcomes for the experiment
	// harness ("number of considered plans").
	inserted, rejected, evicted int

	// hint is the offset into costs of the row that last rejected a
	// candidate; InsertRowNear tests it before anything else. Eviction
	// compaction, ranking and sealing may leave it past the end (hence the
	// bounds check) or on another row — still a stored row, so a hit is still
	// a valid witness. The zero value names row 0. hintRejected counts the
	// candidates rejected without a scan: by this row, by the caller's second
	// hint, or by the gate on either (RejectsAll, RejectsAllNear).
	hint, hintRejected int

	// ranked records that the rows stand in rank order (between an indexed
	// insert and the next Seal), each record carrying its row's signature.
	ranked bool

	// visited counts the ranks the rejection and eviction scans of three or
	// more objectives reached, tested those whose cost row they read: the
	// rest the signature pre-test dismissed (ScanVisits).
	visited, tested int

	// generic records that the archive has taken insertGeneric — it is the
	// oracle's, or a scanning insert met keys the index cannot order
	// (FlatConfig.keys) and the archive may hold such a row: it is never
	// ranked again, and every scanning insert is insertGeneric's.
	generic bool
}

// record is one stored row's plan entry (flattened, so that seq fills what
// would be its padding and a record stays 48 bytes), key, insertion sequence
// (storage order is ascending seq) and, while the archive is ranked, the
// row's dominance signature (signature.go). reorder borrows sig as its
// scratch.
type record struct {
	op, left, right, seq int32
	leftSet, rightSet    query.TableSet
	key                  float64
	sig                  uint64
}

func newRecord(e plan.Entry, key float64, seq int32, sig uint64) record {
	return record{op: e.Op, left: e.LeftIdx, right: e.RightIdx, seq: seq,
		leftSet: e.LeftSet, rightSet: e.RightSet, key: key, sig: sig}
}

func (r *record) entry() plan.Entry {
	return plan.Entry{Op: r.op, LeftIdx: r.left, RightIdx: r.right, LeftSet: r.leftSet, RightSet: r.rightSet}
}

// Arena holds the rows of the archives one writer fills, one after another,
// in chunks: a backing slice of records and one of cost rows. Open starts an
// archive at the arena's tail, with the rest of the chunk as its capacity, so
// the archive grows in place; Close caps the archive's slices at their length
// (len == cap: no later append can reach the next archive's rows), after which
// it is read-only, and moves the tail past it. An archive that outgrows the
// rest of its chunk mid-fill is reallocated by append as any slice is and
// leaves the tail where it was. Open takes a fresh chunk, twice the size of
// the one before, when the rest of the current one is smaller than the
// archive closed last. One archive is open at a time, and only its writer
// touches the arena; closed archives may be read by anyone.
//
// An arena is never reused or reset: a closed archive keeps its chunk alive
// for as long as anyone holds the archive. A nil *Arena is the heap: Open and
// Close work on it, and every archive gets its own slices.
type Arena struct {
	recs  []record  // the current chunk up to the tail
	costs []float64 // its cost rows, stride per record
	next  int       // rows of the next chunk
	last  int       // rows of the archive closed last
	open  bool
}

// MakeArenas returns n arenas whose first chunks, rows rows each, are carved
// from one backing slice of records and one of cost rows, so that the
// arenas of a run cost two allocations however many writers it has.
func MakeArenas(n, rows int) []Arena {
	rows = max(rows, 1)
	recs, costs := make([]record, n*rows), make([]float64, n*rows*stride)
	out := make([]Arena, n)
	for i := range out {
		out[i] = Arena{
			recs:  recs[i*rows : i*rows : (i+1)*rows],
			costs: costs[i*rows*stride : i*rows*stride : (i+1)*rows*stride],
			next:  2 * rows,
		}
	}
	return out
}

// Open makes *a an empty archive sharing the run's configuration, its rows
// starting at the arena's tail. It is the one constructor of FlatArchive.
func (ar *Arena) Open(a *FlatArchive, cfg *FlatConfig) {
	*a = FlatArchive{cfg: cfg}
	if ar == nil {
		return
	}
	if ar.open {
		panic("pareto: an archive of this arena is still open")
	}
	ar.open = true
	t := len(ar.recs)
	if cap(ar.recs)-t < max(ar.last, 1) {
		ar.recs = make([]record, 0, ar.next)
		ar.costs = make([]float64, 0, ar.next*stride)
		ar.next *= 2
		t = 0
	}
	a.recs, a.costs = ar.recs[t:t], ar.costs[t*stride:t*stride]
}

// Close seals a finished archive (Seal) and closes it: its slices are capped
// at their length, and if its rows still lie in the arena's chunk the tail
// moves past them. It must be the archive Open started last.
func (ar *Arena) Close(a *FlatArchive) {
	a.Seal()
	n := len(a.recs)
	inPlace := ar != nil && cap(a.recs) == cap(ar.recs)-len(ar.recs)
	a.recs, a.costs = a.recs[:n:n], a.costs[:n*stride:n*stride]
	if ar == nil {
		return
	}
	ar.open, ar.last = false, n
	if inPlace {
		ar.recs = ar.recs[:len(ar.recs)+n]
		ar.costs = ar.costs[:len(ar.costs)+n*stride]
	}
}

// NewFlat creates an empty archive on the heap sharing the run's
// configuration: Open on a nil arena.
func NewFlat(cfg *FlatConfig) *FlatArchive {
	a := new(FlatArchive)
	(*Arena)(nil).Open(a, cfg)
	return a
}

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
// caller's second hint (InsertRowNear), and only a miss of both scans the
// ranks of the sum index that can hold a rejector (rejector), then those that
// can hold a row to evict (evict). Two-wide each scan is a step or a run, and
// wider one loop (kernels.go); every path answers the questions insertGeneric
// asks, so results and counters are bit-identical regardless of the path.
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
	if a.generic {
		return a.insertGeneric(*c, e)
	}
	var t [stride]float64
	cfg.thresholds(c, &t)
	ck, tk, ok := cfg.keys(c, &t)
	if !ok {
		return a.insertGeneric(*c, e)
	}
	if !a.ranked {
		a.rank()
	}
	if r := a.rejector(&t, tk); r >= 0 {
		a.hint = r * stride
		*near = int32(r)
		a.rejected++
		return false
	}
	lo := a.ranksBelow(ck)
	cs := cfg.signature(c)
	a.store(c, e, ck, cs, lo, a.evict(c, cs, lo))
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
	if !a.HintCovers(floor) {
		return false
	}
	a.rejected += n
	a.hintRejected += n
	return true
}

// HintCovers is RejectsAll's test without its count: whether the hinted row
// approximately dominates floor. A caller whose candidates fall under several
// floors asks it of all but one and RejectsAll of the last, so that the n
// candidates are counted once, and only when every floor is covered.
func (a *FlatArchive) HintCovers(floor *objective.Vector) bool {
	h := a.hint
	return h < len(a.costs) && a.cfg.rowRejectsFloor(a.costs[h:h+stride], floor)
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

// insertGeneric is Insert restricted to the original early-exit scalar
// loops over the whole archive in storage order, with no hint and no index —
// the differential oracle the hinted and indexed paths are tested against,
// and the path of an archive whose keys stopped ordering its rows. Either
// way the archive is generic from then on: it is never ranked again.
func (a *FlatArchive) insertGeneric(c objective.Vector, e plan.Entry) bool {
	a.Seal()
	a.generic = true
	var t [stride]float64
	a.cfg.thresholds(&c, &t)
	if anyRowLeqGeneric(a.costs, a.cfg.ids, &t) >= 0 {
		a.rejected++
		return false
	}
	a.evictGeneric(a.cfg.ids, &c)
	a.recs = append(a.recs, newRecord(e, 0, 0, 0))
	a.costs = append(a.costs, c[:]...)
	a.inserted++
	return true
}

// Seal puts the stored rows back in storage order, where every reader of an
// archive by index finds them (EntryAt, CostAt, CostRow, Rows and the
// selections call it first). The next indexed insert ranks them again. An
// archive read by several goroutines must be sealed before they start.
func (a *FlatArchive) Seal() {
	if a.ranked {
		a.reorder(bySeq)
		a.ranked = false
	}
}

// rank puts the stored rows in rank order and signs them.
func (a *FlatArchive) rank() {
	a.reorder(byKey)
	if a.cfg.sigBits != 0 {
		for i := range a.recs {
			a.recs[i].sig = a.cfg.signature((*objective.Vector)(a.costs[i*stride:]))
		}
	}
	a.ranked = true
}

// byKey is rank order: ascending key, and among equal keys the newest row
// first, where an insert ranks it (store). bySeq is storage order.
func byKey(x, y record) int {
	if c := cmp.Compare(x.key, y.key); c != 0 {
		return c
	}
	return cmp.Compare(y.seq, x.seq)
}

func bySeq(x, y record) int { return cmp.Compare(x.seq, y.seq) }

// reorder sorts the stored rows by order: the records, then the cost rows
// after them, one cycle of the permutation at a time. Each record's sig holds
// the rank it came from, then its complement once its cost row has moved;
// the signatures are gone afterwards (rank re-signs).
func (a *FlatArchive) reorder(order func(x, y record) int) {
	recs, costs := a.recs, a.costs
	for i := range recs {
		recs[i].sig = uint64(i)
	}
	slices.SortFunc(recs, order)
	var first [stride]float64
	for i := range recs {
		if int64(recs[i].sig) < 0 {
			continue
		}
		copy(first[:], costs[i*stride:])
		for j := i; ; {
			f := int(recs[j].sig)
			recs[j].sig = ^recs[j].sig
			if f == i {
				copy(costs[j*stride:(j+1)*stride], first[:])
				break
			}
			copy(costs[j*stride:(j+1)*stride], costs[f*stride:(f+1)*stride])
			j = f
		}
	}
}

// Len returns the number of stored plans.
func (a *FlatArchive) Len() int { return len(a.recs) }

// EntryAt returns the i-th stored entry.
func (a *FlatArchive) EntryAt(i int32) plan.Entry {
	a.Seal()
	return a.recs[i].entry()
}

// CostAt returns a copy of the i-th stored cost vector.
func (a *FlatArchive) CostAt(i int32) objective.Vector {
	a.Seal()
	var v objective.Vector
	copy(v[:], a.costs[int(i)*stride:int(i)*stride+stride])
	return v
}

// CostRow returns the i-th stored cost vector in place, for read-only use
// on hot paths where CostAt's copy shows. The pointer aliases the archive's
// backing array: it is invalidated by the next Insert or Reset.
func (a *FlatArchive) CostRow(i int32) *objective.Vector {
	a.Seal()
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

// ScanVisits returns how many ranks the scans of an archive of three or more
// active objectives have visited, and how many of those they tested on the
// cost row: the others the dominance signature alone dismissed.
func (a *FlatArchive) ScanVisits() (visited, tested int) { return a.visited, a.tested }

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
func (a *FlatArchive) Rows() []float64 {
	a.Seal()
	return a.costs
}

// CanonicalOrder returns the archive's row indexes in canonical order:
// sorted by CompareCanonical, stably, so rows with identical cost vectors
// keep the archive's (deterministic) insertion order. It is the one place
// a finished frontier is ordered.
func (a *FlatArchive) CanonicalOrder() []int32 {
	a.Seal()
	order := make([]int32, a.Len())
	for i := range order {
		order[i] = int32(i)
	}
	costs := a.costs
	slices.SortStableFunc(order, func(i, j int32) int {
		return CompareCanonical((*objective.Vector)(costs[int(i)*stride:]), (*objective.Vector)(costs[int(j)*stride:]))
	})
	return order
}

// CompareCanonical orders two cost vectors lexicographically over all nine
// objectives — the canonical order of every extracted frontier. Sorting by
// it makes a frontier independent of how the run was scheduled, which is
// what lets a snapshot-served answer match a cold run bit for bit. It reads
// both vectors in place.
func CompareCanonical(a, b *objective.Vector) int {
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
	a.Seal()
	return SelectBestRows(a.costs, w, b, a.cfg.objs)
}

// Reset empties the archive, keeping the backing arrays (and counters and
// hint at zero) for reuse — the warm-up discipline of the zero-allocation
// tests and benchmarks. The engine never resets an archive.
func (a *FlatArchive) Reset() {
	a.costs = a.costs[:0]
	a.recs = a.recs[:0]
	a.inserted, a.rejected, a.evicted = 0, 0, 0
	a.hint, a.hintRejected, a.ranked, a.generic = 0, 0, false, false
	a.visited, a.tested = 0, 0
}

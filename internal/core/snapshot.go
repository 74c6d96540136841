package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// FrontierSnapshot is a self-contained Frontier: the frontier of one
// finished run over the closed sub-memo its entries transitively
// reference, plus the run's set-level precision, origin and effort — the
// unit the frontier cache stores and ships. The frontier itself is
// independent of the user's weights and bounds (the paper's central
// observation, §3: pruning compares cost vectors, never weighted costs),
// so a snapshot computed under one preference vector answers any later
// weight or bound change with a SelectBest scan over its rows —
// microseconds instead of a dynamic program.
//
// Because the sub-memo is closed and densely re-indexed, a snapshot
// survives serialization (MarshalBinary) and can persist to disk or ship
// between moqod replicas; its plan trees are materialized once, on first
// use, like any Frontier's.
//
// Snapshots are never built from degraded (timed-out) runs: a truncated
// frontier carries no reuse guarantee.
type FrontierSnapshot struct {
	Frontier
	// setAlpha is the set-level approximation precision of the frontier:
	// 1 for EXA (exact Pareto set), the requested αU for RTA, the final
	// iteration's α(i) for IRA. It is what the seeded-IRA stopping
	// condition may assume about the snapshot.
	setAlpha float64
	// pruneAlpha and prec record the originating run's per-level pruning
	// configuration (internal precision): origin data, validated and
	// round-tripped, that no selection reads.
	pruneAlpha float64
	prec       *objective.Precision
	// subs is the closed sub-memo (Frontier.memo reads it): every (table
	// set, index) reachable from the frontier entries, sets ascending,
	// densely re-indexed.
	subs subMemo
	// stats is the originating run's effort (reuse answers report it
	// with ReusedFrontier set).
	stats Stats
}

// snapshotSet is the retained slice of one table set's archive.
type snapshotSet struct {
	set     query.TableSet
	costs   []float64
	entries []plan.Entry
	// off numbers the set's first row in the snapshot's dense numbering
	// (snapshotMemo): the frontier rows first, then every retained set's
	// rows, sets ascending.
	off int
}

// subMemo is a snapshot's closed sub-memo as a plan.Memo.
type subMemo []snapshotSet

// find returns the retained slice for a table set (nil when absent, as
// for the full set, which lives in the frontier rows).
func (m subMemo) find(t query.TableSet) *snapshotSet {
	i := sort.Search(len(m), func(i int) bool { return m[i].set >= t })
	if i < len(m) && m[i].set == t {
		return &m[i]
	}
	return nil
}

// snapshotMemo is the plan.DenseMemo a snapshot's frontier materializes
// through: the frontier rows are slots 0 to Len()-1, and each retained
// set's rows follow from its off. Closed and densely re-indexed, the
// sub-memo numbers every plan a materialization can reach.
type snapshotMemo struct {
	frontierMemo
	subs subMemo
}

var _ plan.DenseMemo = snapshotMemo{}

// Lookup implements plan.DenseMemo.
func (m snapshotMemo) Lookup(t query.TableSet, idx int32) (int, plan.Entry, *objective.Vector) {
	i := int(idx)
	if t == m.f.all {
		return i, m.f.entries[i], (*objective.Vector)(m.f.costs[i*costStride:])
	}
	sub := m.subs.find(t)
	return sub.off + i, sub.entries[i], (*objective.Vector)(sub.costs[i*costStride:])
}

// Size implements plan.DenseMemo.
func (m snapshotMemo) Size() (plans, probes int) {
	count := func(ents []plan.Entry) {
		plans += len(ents)
		for _, ent := range ents {
			if ent.RightIdx == plan.SyntheticInner {
				probes++
			}
		}
	}
	count(m.f.entries)
	for i := range m.subs {
		count(m.subs[i].entries)
	}
	return plans, probes
}

// EntryAt implements plan.Memo.
func (m subMemo) EntryAt(t query.TableSet, idx int32) plan.Entry {
	return m.find(t).entries[idx]
}

// CostAt implements plan.Memo.
func (m subMemo) CostAt(t query.TableSet, idx int32) objective.Vector {
	return objective.Vector(m.find(t).costs[int(idx)*costStride : (int(idx)+1)*costStride])
}

// SetAlpha returns the set-level approximation precision of the frontier
// (1 = exact Pareto set).
func (s *FrontierSnapshot) SetAlpha() float64 { return s.setAlpha }

// SizeBytes estimates the snapshot's in-memory footprint (cost rows plus
// entry records across the frontier and the sub-memo) — the figure behind
// the moqod snapshot-bytes gauge. It tracks the serialized size closely:
// both are dominated by the same rows and entries.
func (s *FrontierSnapshot) SizeBytes() int {
	const entryBytes = 32 // op + 2 idx (int32) + 2 table sets (uint64), padded
	n := 8*len(s.costs) + entryBytes*len(s.entries)
	for i := range s.subs {
		n += 16 + 8*len(s.subs[i].costs) + entryBytes*len(s.subs[i].entries)
	}
	return n + 128
}

// SelectFromSnapshot answers a weighted (and, for exact snapshots,
// bounded) request from a cached frontier: a SelectBest scan over the
// snapshot rows, the plan taken from the snapshot's one materialization.
// This is the re-weight fast path — no dynamic program runs. The returned
// result is bit-for-bit the one a cold run at the same weights and bounds
// would produce (plan, cost vector, frontier); its Stats carry the
// originating run's effort counters with ReusedFrontier set and Duration
// measuring the scan.
func SelectFromSnapshot(snap *FrontierSnapshot, w objective.Weights, b objective.Bounds) (Result, error) {
	if snap == nil || snap.Len() == 0 {
		return Result{}, fmt.Errorf("core: empty frontier snapshot")
	}
	if !w.Valid() || !b.Valid() {
		return Result{}, fmt.Errorf("core: invalid weights or bounds")
	}
	start := time.Now()
	row := snap.SelectBest(w, b)
	best := snap.Plans()[row]
	st := snap.stats
	st.ReusedFrontier = true
	st.Duration = time.Since(start)
	return Result{Best: best, BestRow: row, Frontier: &snap.Frontier, Stats: st, Snapshot: snap}, nil
}

// planRef identifies one stored sub-plan during snapshot extraction.
type planRef struct {
	set query.TableSet
	idx int32
}

// snapshot closes a run's frontier over the sub-plans it transitively
// reaches, densely re-indexed. The canonical rows are shared with f (both
// are immutable); only the entries are rewritten. cfg is the originating
// run's pruning configuration.
func (f *Frontier) snapshot(setAlpha float64, cfg *pareto.FlatConfig, st Stats) *FrontierSnapshot {
	s := &FrontierSnapshot{
		Frontier: Frontier{
			objs: f.objs, all: f.all, costs: f.costs,
			inserted: f.inserted, rejected: f.rejected, evicted: f.evicted,
		},
		setAlpha:   setAlpha,
		pruneAlpha: cfg.Alpha(),
		prec:       cfg.Precision(),
		stats:      st,
	}

	// Transitive reachability over the memo, from the frontier entries
	// down: refs lists every reached sub-plan once. Index-nested-loop
	// inners (SyntheticInner) are synthetic index probes, not stored
	// sub-plans, and carry no reference.
	remap := make(map[planRef]int32)
	var refs, stack []planRef
	push := func(ent plan.Entry) {
		if ent.IsScan() {
			return
		}
		stack = append(stack, planRef{ent.LeftSet, ent.LeftIdx})
		if ent.RightIdx != plan.SyntheticInner {
			stack = append(stack, planRef{ent.RightSet, ent.RightIdx})
		}
	}
	for _, ent := range f.entries {
		push(ent)
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := remap[r]; ok {
			continue
		}
		remap[r] = 0
		refs = append(refs, r)
		push(f.memo.EntryAt(r.set, r.idx))
	}

	// Dense re-indexing: sets ascending, retained indices ascending. Every
	// set's rows are a capped sub-slice of one entry array and one cost
	// array, as a decoded snapshot's are.
	slices.SortFunc(refs, func(a, b planRef) int {
		return cmp.Or(cmp.Compare(a.set, b.set), cmp.Compare(a.idx, b.idx))
	})
	nsets := 0
	for i, r := range refs {
		if i == 0 || r.set != refs[i-1].set {
			nsets++
		}
	}
	s.subs = make(subMemo, 0, nsets)
	ents, costs := make([]plan.Entry, len(refs)), make([]float64, len(refs)*costStride)
	first := 0 // refs index of the current set's first row
	for i, r := range refs {
		if i == 0 || r.set != refs[i-1].set {
			s.subs = append(s.subs, snapshotSet{set: r.set, off: len(f.entries) + i})
			first = i
		}
		remap[r] = int32(i - first)
		ents[i] = f.memo.EntryAt(r.set, r.idx)
		v := f.memo.CostAt(r.set, r.idx)
		copy(costs[i*costStride:], v[:])
		sub := &s.subs[len(s.subs)-1]
		end := i + 1
		sub.entries, sub.costs = ents[first:end:end], costs[first*costStride:end*costStride:end*costStride]
	}
	rewrite := func(ent plan.Entry) plan.Entry {
		if ent.IsScan() {
			return ent
		}
		ent.LeftIdx = remap[planRef{ent.LeftSet, ent.LeftIdx}]
		if ent.RightIdx != plan.SyntheticInner {
			ent.RightIdx = remap[planRef{ent.RightSet, ent.RightIdx}]
		}
		return ent
	}
	for i := range ents {
		ents[i] = rewrite(ents[i])
	}
	s.entries = make([]plan.Entry, len(f.entries))
	for i, ent := range f.entries {
		s.entries[i] = rewrite(ent)
	}
	s.memo = s.subs
	return s
}

// Serialization: a versioned little-endian binary format, so snapshots
// can persist to disk or ship between moqod replicas. The format is
// self-contained (closed sub-memo included) and validated on decode.
const (
	snapshotMagic   = "MOQF"
	snapshotVersion = 1
)

// MarshalBinary encodes the snapshot in the versioned binary format.
func (s *FrontierSnapshot) MarshalBinary() ([]byte, error) {
	w := binWriter{buf: make([]byte, 0, s.SizeBytes()+256)}
	w.raw([]byte(snapshotMagic))
	w.u16(snapshotVersion)
	w.u16(uint16(s.objs))
	w.f64(s.setAlpha)
	w.f64(s.pruneAlpha)
	if s.prec != nil {
		w.u8(1)
		for _, x := range s.prec {
			w.f64(x)
		}
	} else {
		w.u8(0)
	}
	w.u64(uint64(s.all))
	w.u64(uint64(s.inserted))
	w.u64(uint64(s.rejected))
	w.u64(uint64(s.evicted))
	w.u64(uint64(s.stats.Duration))
	w.u64(uint64(s.stats.Considered))
	w.u64(uint64(s.stats.Stored))
	w.u64(uint64(s.stats.MemoryBytes))
	w.u64(uint64(s.stats.ParetoLast))
	w.u64(uint64(s.stats.EnumSets))
	w.u64(uint64(s.stats.EnumSplits))
	w.u64(uint64(s.stats.Iterations))
	w.section(s.entries, s.costs)
	w.u32(uint32(len(s.subs)))
	for i := range s.subs {
		w.u64(uint64(s.subs[i].set))
		w.section(s.subs[i].entries, s.subs[i].costs)
	}
	return w.buf, nil
}

// UnmarshalFrontierSnapshot decodes a snapshot encoded by MarshalBinary,
// validating the format version, all array lengths, and that every entry
// reference resolves within the snapshot's closed sub-memo.
func UnmarshalFrontierSnapshot(data []byte) (*FrontierSnapshot, error) {
	r := binReader{buf: data}
	if string(r.raw(4)) != snapshotMagic {
		return nil, fmt.Errorf("core: not a frontier snapshot (bad magic)")
	}
	if v := r.u16(); v != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported frontier snapshot version %d", v)
	}
	s := &FrontierSnapshot{}
	s.objs = objective.Set(r.u16())
	s.setAlpha = r.f64()
	s.pruneAlpha = r.f64()
	switch flag := r.u8(); flag {
	case 0:
	case 1:
		var p objective.Precision
		for i := range p {
			p[i] = r.f64()
		}
		s.prec = &p
	default:
		if r.err == nil {
			return nil, fmt.Errorf("core: corrupt frontier snapshot: precision flag %d", flag)
		}
	}
	s.all = query.TableSet(r.u64())
	s.inserted = int(r.u64())
	s.rejected = int(r.u64())
	s.evicted = int(r.u64())
	s.stats.Duration = time.Duration(r.u64())
	s.stats.Considered = int(r.u64())
	s.stats.Stored = int(r.u64())
	s.stats.MemoryBytes = int64(r.u64())
	s.stats.ParetoLast = int(r.u64())
	s.stats.EnumSets = int(r.u64())
	s.stats.EnumSplits = int(r.u64())
	s.stats.Iterations = int(r.u64())
	r.rows()
	s.entries, s.costs = r.section()
	nsubs := int(r.u32())
	if r.err == nil && nsubs > r.remaining()/8 {
		return nil, fmt.Errorf("core: corrupt frontier snapshot: sub-memo count %d exceeds payload", nsubs)
	}
	if r.err == nil {
		s.subs = make(subMemo, nsubs)
		off := len(s.entries)
		for i := 0; i < nsubs && r.err == nil; i++ {
			s.subs[i].set = query.TableSet(r.u64())
			s.subs[i].entries, s.subs[i].costs = r.section()
			s.subs[i].off = off
			off += len(s.subs[i].entries)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: corrupt frontier snapshot: %w", r.err)
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("core: corrupt frontier snapshot: %d trailing bytes", len(r.buf)-r.off)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	s.memo = s.subs
	return s, nil
}

// validate checks structural invariants after decode: sets sorted and
// unique, every cost slice row-aligned with its entries, every entry
// reference resolvable, every cost finite and non-negative, every
// operator code within the engine's plan space, and every join a proper
// split of its containing set. The split invariant (operands disjoint,
// non-empty, and unioning exactly to the container) forces strict
// cardinality descent along entry chains, so a decoded snapshot can
// never send the materializer into a reference cycle.
func (s *FrontierSnapshot) validate() error {
	if len(s.entries) == 0 {
		return fmt.Errorf("core: frontier snapshot with empty frontier")
	}
	if s.objs == 0 || s.objs&^objective.AllSet() != 0 {
		return fmt.Errorf("core: corrupt frontier snapshot: objective set %#x", uint16(s.objs))
	}
	if !alphaValid(s.setAlpha) || !alphaValid(s.pruneAlpha) {
		return fmt.Errorf("core: corrupt frontier snapshot: invalid alpha")
	}
	if s.prec != nil {
		for _, x := range s.prec {
			if !alphaValid(x) {
				return fmt.Errorf("core: corrupt frontier snapshot: invalid precision")
			}
		}
	}
	if s.all.Empty() {
		return fmt.Errorf("core: corrupt frontier snapshot: empty table set")
	}
	lenOf := func(t query.TableSet) (int, bool) {
		if sub := s.subs.find(t); sub != nil {
			return len(sub.entries), true
		}
		return 0, false
	}
	for i := range s.subs {
		if i > 0 && s.subs[i-1].set >= s.subs[i].set {
			return fmt.Errorf("core: corrupt frontier snapshot: sub-memo sets out of order")
		}
		if s.subs[i].set == s.all {
			return fmt.Errorf("core: corrupt frontier snapshot: full set in sub-memo")
		}
	}
	check := func(container query.TableSet, ents []plan.Entry, costs []float64) error {
		if len(costs) != len(ents)*costStride {
			return fmt.Errorf("core: corrupt frontier snapshot: cost rows misaligned")
		}
		for _, x := range costs {
			if math.IsNaN(x) || x < 0 {
				return fmt.Errorf("core: corrupt frontier snapshot: invalid cost value")
			}
		}
		for _, ent := range ents {
			if ent.IsScan() {
				if err := validScanEntry(container, ent); err != nil {
					return err
				}
				continue
			}
			if err := validJoinEntry(container, ent); err != nil {
				return err
			}
			if n, ok := lenOf(ent.LeftSet); !ok || int(ent.LeftIdx) >= n || ent.LeftIdx < 0 {
				return fmt.Errorf("core: corrupt frontier snapshot: dangling left reference %v[%d]", ent.LeftSet, ent.LeftIdx)
			}
			if ent.RightIdx == plan.SyntheticInner {
				if !ent.RightSet.Single() {
					return fmt.Errorf("core: corrupt frontier snapshot: non-singleton index-probe inner")
				}
				continue
			}
			if n, ok := lenOf(ent.RightSet); !ok || int(ent.RightIdx) >= n || ent.RightIdx < 0 {
				return fmt.Errorf("core: corrupt frontier snapshot: dangling right reference %v[%d]", ent.RightSet, ent.RightIdx)
			}
		}
		return nil
	}
	if err := check(s.all, s.entries, s.costs); err != nil {
		return err
	}
	for i := range s.subs {
		if err := check(s.subs[i].set, s.subs[i].entries, s.subs[i].costs); err != nil {
			return err
		}
	}
	return nil
}

// alphaValid reports whether x is a usable approximation precision: a
// finite value of at least 1 (also rejecting NaN).
func alphaValid(x float64) bool { return x >= 1 && !math.IsInf(x, 1) }

// validScanEntry checks a scan entry against the engine's plan space:
// scans are stored only for singleton sets, carry no operand references,
// and their op code must decode to a known algorithm (with a rate index
// inside SampleRates for sampling scans — an out-of-range index would
// panic in Entry.ScanOp during materialization).
func validScanEntry(container query.TableSet, ent plan.Entry) error {
	if !container.Single() {
		return fmt.Errorf("core: corrupt frontier snapshot: scan of non-singleton set %v", container)
	}
	if ent.RightSet != 0 || ent.LeftIdx != 0 || ent.RightIdx != 0 {
		return fmt.Errorf("core: corrupt frontier snapshot: scan entry with operand references")
	}
	alg, param := plan.ScanAlg(ent.Op>>8), ent.Op&0xff
	if ent.Op < 0 || ent.Op&^0xffff != 0 {
		return fmt.Errorf("core: corrupt frontier snapshot: scan op %#x out of range", ent.Op)
	}
	switch alg {
	case plan.SeqScan, plan.IndexScan:
		if param != 0 {
			return fmt.Errorf("core: corrupt frontier snapshot: scan op %#x has spurious rate index", ent.Op)
		}
	case plan.SampleScan:
		if int(param) >= len(plan.SampleRates) {
			return fmt.Errorf("core: corrupt frontier snapshot: sample rate index %d out of range", param)
		}
	default:
		return fmt.Errorf("core: corrupt frontier snapshot: unknown scan algorithm %d", alg)
	}
	return nil
}

// validJoinEntry checks a join entry's op code and split shape: known
// algorithm, DOP within [1, MaxDOP], operands disjoint and non-empty,
// unioning exactly to the containing set.
func validJoinEntry(container query.TableSet, ent plan.Entry) error {
	alg, dop := plan.JoinAlg(ent.Op>>8), ent.Op&0xff
	if ent.Op < 0 || ent.Op&^0xffff != 0 || alg < plan.HashJoin || alg > plan.BlockNLJoin {
		return fmt.Errorf("core: corrupt frontier snapshot: join op %#x out of range", ent.Op)
	}
	if dop < 1 || int(dop) > plan.MaxDOP {
		return fmt.Errorf("core: corrupt frontier snapshot: join DOP %d out of range", dop)
	}
	if ent.RightSet.Empty() {
		return fmt.Errorf("core: corrupt frontier snapshot: join with empty inner set")
	}
	if !ent.LeftSet.Disjoint(ent.RightSet) || ent.LeftSet.Union(ent.RightSet) != container {
		return fmt.Errorf("core: corrupt frontier snapshot: entry operands %v ⋈ %v are not a split of %v",
			ent.LeftSet, ent.RightSet, container)
	}
	return nil
}

// binWriter appends little-endian primitives to a growing buffer.
type binWriter struct{ buf []byte }

func (w *binWriter) raw(p []byte) { w.buf = append(w.buf, p...) }
func (w *binWriter) u8(x uint8)   { w.buf = append(w.buf, x) }
func (w *binWriter) u16(x uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, x) }
func (w *binWriter) u32(x uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, x) }
func (w *binWriter) u64(x uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, x) }
func (w *binWriter) f64(x float64) {
	w.u64(math.Float64bits(x))
}

// section writes one (entries, costs) archive slice.
func (w *binWriter) section(ents []plan.Entry, costs []float64) {
	w.u32(uint32(len(ents)))
	for _, e := range ents {
		w.u32(uint32(e.Op))
		w.u32(uint32(e.LeftIdx))
		w.u32(uint32(e.RightIdx))
		w.u64(uint64(e.LeftSet))
		w.u64(uint64(e.RightSet))
	}
	for _, c := range costs {
		w.f64(c)
	}
}

// binReader reads little-endian primitives, latching the first error.
type binReader struct {
	buf []byte
	off int
	err error
	// ents and costs are the rows not yet handed to a section (see rows).
	ents  []plan.Entry
	costs []float64
}

// rowBytes is the encoded size of one stored plan: its entry (op and two
// indexes as 32-bit words, two table sets as 64-bit ones) and its cost
// row.
const rowBytes = 28 + 8*costStride

// rows allocates the one entry array and the one cost array every section
// that follows is carved from: room for as many rows as the rest of the
// payload can encode. A section is carved only when all its bytes are
// there (see section), after those of the sections before it, so the rows
// left over always hold it.
func (r *binReader) rows() {
	if r.err != nil {
		return
	}
	n := r.remaining() / rowBytes
	r.ents, r.costs = make([]plan.Entry, n), make([]float64, n*costStride)
}

func (r *binReader) remaining() int { return len(r.buf) - r.off }

func (r *binReader) raw(n int) []byte {
	if r.err != nil || r.remaining() < n {
		r.err = fmt.Errorf("truncated at offset %d", r.off)
		return make([]byte, n)
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

func (r *binReader) u8() uint8    { return r.raw(1)[0] }
func (r *binReader) u16() uint16  { return binary.LittleEndian.Uint16(r.raw(2)) }
func (r *binReader) u32() uint32  { return binary.LittleEndian.Uint32(r.raw(4)) }
func (r *binReader) u64() uint64  { return binary.LittleEndian.Uint64(r.raw(8)) }
func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

// section reads one (entries, costs) archive slice into the next n rows
// of the arrays rows allocated, capped so nothing appends into the next
// section's. A section whose n rows are not all in the payload is
// rejected before any of it is read.
func (r *binReader) section() ([]plan.Entry, []float64) {
	n := int(r.u32())
	if r.err != nil || n > r.remaining()/rowBytes {
		if r.err == nil {
			r.err = fmt.Errorf("entry count %d exceeds payload at offset %d", n, r.off)
		}
		return nil, nil
	}
	ents, costs := r.ents[:n:n], r.costs[:n*costStride:n*costStride]
	r.ents, r.costs = r.ents[n:], r.costs[n*costStride:]
	b := r.raw(n * rowBytes)
	le := binary.LittleEndian
	for i := range ents {
		e := b[28*i : 28*i+28]
		ents[i] = plan.Entry{
			Op:       int32(le.Uint32(e)),
			LeftIdx:  int32(le.Uint32(e[4:])),
			RightIdx: int32(le.Uint32(e[8:])),
			LeftSet:  query.TableSet(le.Uint64(e[12:])),
			RightSet: query.TableSet(le.Uint64(e[20:])),
		}
	}
	b = b[28*n:]
	for i := range costs {
		costs[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
	return ents, costs
}

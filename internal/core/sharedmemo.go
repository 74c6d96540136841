package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"moqo/internal/costmodel"
	"moqo/internal/pareto"
	"moqo/internal/query"
)

// SharedMemo is a cross-query store of completed Pareto archives — the
// batch path's common-subexpression layer. Queries of one workload that
// join overlapping table sets solve overlapping subproblems: the paper's
// dynamic program memoizes per table set *within* one run, and the shared
// memo extends that memoization *across* runs whose subproblems provably
// coincide.
//
// An archive for table set s is a pure function of
//
//   - the induced subquery on s: the relations of s at their local
//     indexes (table identity and filter selectivity) and the join edges
//     internal to s in their declaration order — query.EstimateRows,
//     EstimateWidth, connectivity and index applicability never read
//     anything outside s,
//   - the catalog statistics (fingerprinted),
//   - the run configuration: active objectives, per-objective internal
//     pruning precisions (exact float bits — this is what keeps RTA runs
//     of different query sizes apart, since αi = α^(1/n) depends on n),
//     MaxDOP, the sampling decision, and the cost-model calibration,
//
// and of nothing else: the candidate enumeration order is canonical
// across candidate loops, worker counts and split anchors (the engine's
// standing invariant, pinned by the differential tests). The
// memo key encodes exactly those inputs, so a hit substitutes an archive
// that is bit-for-bit the one the engine would have computed — plans,
// cost rows, insertion order, and the (table set, row index) sub-plan
// references its entries carry, which resolve identically in the
// borrowing run because its lower levels are bit-identical too.
//
// Entries are published only for completely treated sets of runs that
// neither timed out nor were cancelled (a degraded run's lower levels may
// hold truncated archives; see engine.fullSet), and published archives
// are immutable from then on. All methods are safe for concurrent use by
// any number of engine runs.
type SharedMemo struct {
	mu sync.RWMutex
	m  map[string]*pareto.FlatArchive

	hits      atomic.Int64
	misses    atomic.Int64
	published atomic.Int64
}

// NewSharedMemo creates an empty shared memo. Scope it to one batch (one
// catalog generation): the memo grows monotonically and is dropped as a
// whole when the batch completes.
func NewSharedMemo() *SharedMemo {
	return &SharedMemo{m: make(map[string]*pareto.FlatArchive)}
}

// get returns the archive published under key, or nil. The []byte key
// avoids allocating on the (frequent) lookup path.
func (sm *SharedMemo) get(key []byte) *pareto.FlatArchive {
	sm.mu.RLock()
	a := sm.m[string(key)]
	sm.mu.RUnlock()
	if a != nil {
		sm.hits.Add(1)
	} else {
		sm.misses.Add(1)
	}
	return a
}

// put publishes a completed archive under key. First publisher wins;
// concurrent publishers of one key computed bit-identical archives, so
// dropping the loser changes nothing.
func (sm *SharedMemo) put(key []byte, a *pareto.FlatArchive) {
	sm.mu.Lock()
	if _, ok := sm.m[string(key)]; !ok {
		sm.m[string(key)] = a
		sm.published.Add(1)
	}
	sm.mu.Unlock()
}

// Len returns the number of published archives.
func (sm *SharedMemo) Len() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return len(sm.m)
}

// Counters reports cumulative lookup hits, lookup misses, and published
// archives.
func (sm *SharedMemo) Counters() (hits, misses, published int64) {
	return sm.hits.Load(), sm.misses.Load(), sm.published.Load()
}

// sharedEdge is one join edge prepared for subproblem-key building: the
// edge's endpoint pair as a table set (for the "internal to s" test) and
// its canonical fragment. The fragments selected for any s stream out in
// the order the edges were declared — the order Query.EstimateRows
// multiplies their selectivities in (and InnerIndexColumn and
// CrossingEdges read them in), so two queries that declare one edge set
// in two orders, whose estimates may differ in the last bit, get two
// keys.
type sharedEdge struct {
	both query.TableSet
	frag []byte
}

// prepareShared precomputes the run-configuration key prefix and the
// per-relation/per-edge fragments, so the per-set key of the hot path is
// a few appends into per-worker scratch. Called once per run, after the
// archive configuration is resolved.
func (e *engine) prepareShared() {
	cat := e.q.Catalog()

	b := make([]byte, 0, 256)
	b = append(b, "sm1|cat="...)
	b = appendHex64(b, cat.Fingerprint())
	// Active objectives with their internal pruning precisions, exact to
	// the float bit: RTA's αi = α^(1/n) folds the member's relation count
	// into the precision, so only same-precision runs (EXA always; RTA/IRA
	// iterations of equal α and n) ever share.
	b = append(b, "|cfg="...)
	ids := e.opts.Objectives.IDs()
	for i, o := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(o), 10)
		b = append(b, ':')
		alpha := e.cfg.Alpha()
		if p := e.cfg.Precision(); p != nil {
			alpha = p[o]
		}
		b = appendHex64(b, math.Float64bits(alpha))
	}
	b = append(b, "|dop="...)
	b = strconv.AppendInt(b, int64(e.opts.MaxDOP), 10)
	b = append(b, "|smp="...)
	b = strconv.AppendBool(b, e.opts.sampling())
	if p := e.m.Params(); p != costmodel.Default() {
		b = fmt.Appendf(b, "|params=%v", p)
	}
	e.sharedPrefix = b

	// Relation fragments: local index, catalog-stable table name
	// (length-prefixed, so no choice of names can alias), filter
	// selectivity bits. The local index matters — compact plan entries
	// address relations by query-local index, so archives are shared only
	// between queries that agree on the mapping.
	e.sharedRels = make([][]byte, len(e.q.Relations))
	for i, r := range e.q.Relations {
		name := cat.Table(r.Table).Name
		rb := make([]byte, 0, len(name)+24)
		rb = strconv.AppendInt(rb, int64(i), 10)
		rb = append(rb, ':')
		rb = strconv.AppendInt(rb, int64(len(name)), 10)
		rb = append(rb, ':')
		rb = append(rb, name...)
		rb = append(rb, '=')
		rb = appendHex64(rb, math.Float64bits(r.FilterSel))
		rb = append(rb, ';')
		e.sharedRels[i] = rb
	}

	// Edge fragments, canonicalized endpoint-low-first, in declaration
	// order (see sharedEdge).
	e.sharedEdges = make([]sharedEdge, 0, len(e.q.Edges))
	for _, ed := range e.q.Edges {
		l, r, lc, rc := ed.Left, ed.Right, ed.LeftCol, ed.RightCol
		if r < l {
			l, r, lc, rc = r, l, rc, lc
		}
		eb := make([]byte, 0, len(lc)+len(rc)+32)
		eb = strconv.AppendInt(eb, int64(l), 10)
		eb = append(eb, '.')
		eb = strconv.AppendInt(eb, int64(len(lc)), 10)
		eb = append(eb, ':')
		eb = append(eb, lc...)
		eb = append(eb, '-')
		eb = strconv.AppendInt(eb, int64(r), 10)
		eb = append(eb, '.')
		eb = strconv.AppendInt(eb, int64(len(rc)), 10)
		eb = append(eb, ':')
		eb = append(eb, rc...)
		eb = append(eb, '=')
		eb = appendHex64(eb, math.Float64bits(ed.Selectivity))
		eb = append(eb, ';')
		e.sharedEdges = append(e.sharedEdges, sharedEdge{
			both: query.Singleton(l).Add(r),
			frag: eb,
		})
	}
}

// sharedKey builds the canonical subproblem key for table set s into this
// worker's scratch buffer: run prefix, the set's relation fragments in
// ascending local-index order, and its internal edges in declaration
// order. The returned slice aliases w.keyBuf and stays valid until
// the worker's next sharedKey call.
func (w *worker) sharedKey(s query.TableSet) []byte {
	e := w.e
	b := append(w.keyBuf[:0], e.sharedPrefix...)
	b = append(b, "|s="...)
	b = appendHex64(b, uint64(s))
	b = append(b, "|r="...)
	for t := s; !t.Empty(); {
		i := t.First()
		t = t.Minus(query.Singleton(i))
		b = append(b, e.sharedRels[i]...)
	}
	b = append(b, "|e="...)
	for i := range e.sharedEdges {
		if e.sharedEdges[i].both.SubsetOf(s) {
			b = append(b, e.sharedEdges[i].frag...)
		}
	}
	w.keyBuf = b
	return b
}

// appendHex64 appends a uint64 as 16 zero-padded lowercase hex digits.
func appendHex64(b []byte, x uint64) []byte {
	const digits = "0123456789abcdef"
	var d [16]byte
	for i := 15; i >= 0; i-- {
		d[i] = digits[x&0xf]
		x >>= 4
	}
	return append(b, d[:]...)
}

// engineRuns counts dynamic-program executions process-wide (one per
// engine.run/runScalar, one per IRA iteration). The batch tests read it
// to assert that duplicate batch members run exactly one DP.
var engineRuns atomic.Int64

// EngineRuns returns the process-wide count of dynamic-program
// executions started so far.
func EngineRuns() int64 { return engineRuns.Load() }

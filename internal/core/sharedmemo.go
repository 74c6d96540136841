package core

import (
	"fmt"
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
// Every key has one owner at a time (single flight): the first run to look
// a missing key up takes it (acquire marks it in flight), solves the set,
// and releases it — publishing the archive, or abandoning the key when the
// set may not be published, so the next run to look it up takes it. A run
// that finds a key in flight in another run defers the set, treats the rest
// of its level, and only then waits for the owner's release. Owners never
// wait while holding a key, and a run waits only once it has nothing left
// to claim, so no wait cycle can form: every subproblem of a batch is
// solved once.
//
// Entries are published only for sets treated completely before their run
// observed a timeout or cancellation (after it, lower levels may hold
// truncated archives; see engine.fullSet): a run that degrades later has
// published exact archives only. Published archives are immutable from
// then on. All methods are safe for concurrent use by any number of engine
// runs.
type SharedMemo struct {
	mu sync.Mutex
	// cond is signalled when a key is released, and when the context of a
	// run waiting on the memo ends (engine.armWake).
	cond sync.Cond
	// m holds the published archives, and inFlight under every key an
	// owner is solving.
	m map[string]*pareto.FlatArchive

	hits      atomic.Int64
	misses    atomic.Int64
	published atomic.Int64
}

// inFlight marks a key whose owner is solving it: one sentinel for every
// key, so taking ownership allocates nothing beyond the key string the map
// keeps anyway.
var inFlight = new(pareto.FlatArchive)

// NewSharedMemo creates an empty shared memo. Scope it to one batch (one
// catalog generation): the memo grows monotonically and is dropped as a
// whole when the batch completes.
func NewSharedMemo() *SharedMemo {
	sm := &SharedMemo{m: make(map[string]*pareto.FlatArchive)}
	sm.cond.L = &sm.mu
	return sm
}

// acquire looks key up. A published archive is a hit. A missing key
// becomes the caller's: it is marked in flight and the returned owned is
// the key string the map holds, which the caller hands to release once the
// set is done. A key in flight in another run returns neither at once when
// stop is nil; otherwise acquire waits until the owner releases the key
// (then as above) or stop reports true (then neither). stop is called with
// the memo locked, so it must only read the caller's own state. The []byte
// key avoids allocating on the (frequent) lookup path.
func (sm *SharedMemo) acquire(key []byte, stop func() bool) (a *pareto.FlatArchive, owned string) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for {
		switch a := sm.m[string(key)]; a {
		case nil:
			owned = string(key)
			sm.m[owned] = inFlight
			sm.misses.Add(1)
			return nil, owned
		case inFlight:
			if stop == nil || stop() {
				return nil, ""
			}
			sm.cond.Wait()
		default:
			sm.hits.Add(1)
			return a, ""
		}
	}
}

// release ends the ownership of key (acquire's owned): it publishes a, or
// abandons the key when a is nil, and wakes the waiting runs.
func (sm *SharedMemo) release(key string, a *pareto.FlatArchive) {
	sm.mu.Lock()
	if a != nil {
		sm.m[key] = a
		sm.published.Add(1)
	} else {
		delete(sm.m, key)
	}
	sm.mu.Unlock()
	sm.cond.Broadcast()
}

// wake wakes every waiting run to re-check its stop condition. Holding the
// lock orders the wake after any waiter's check of that condition.
func (sm *SharedMemo) wake() {
	sm.mu.Lock()
	sm.cond.Broadcast()
	sm.mu.Unlock()
}

// Len returns the number of published archives.
func (sm *SharedMemo) Len() int { return int(sm.published.Load()) }

// Counters reports cumulative lookup hits, lookup misses, and published
// archives. A lookup that finds its key in flight counts once it resolves:
// a hit when the owner publishes, a miss when the waiter takes the key over.
func (sm *SharedMemo) Counters() (hits, misses, published int64) {
	return sm.hits.Load(), sm.misses.Load(), sm.published.Load()
}

// sharedEdge is one join edge prepared for subproblem-key building: the
// edge's endpoint pair as a table set (for the "internal to s" test) and
// its fragment. The fragments selected for any s stream out in the order
// the edges were declared — the order Query.EstimateRows multiplies their
// selectivities in (and InnerIndexColumn and CrossingEdges read them in),
// so two queries that declare one edge set in two orders, whose estimates
// may differ in the last bit, get two keys.
type sharedEdge struct {
	both query.TableSet
	frag []byte
}

// prepareShared precomputes the run-configuration key prefix and the
// per-relation/per-edge fragments, so the per-set key of the hot path is
// a few appends into per-worker scratch. Called once per run, after the
// archive configuration is resolved. Relations and edges are encoded by
// the query's own encoders (Query.AppendRelationKey, JoinEdge.AppendKey),
// the ones the request keys use: shortest round-trip floats, which are
// exact to the bit.
func (e *engine) prepareShared() {
	cat := e.q.Catalog()

	b := make([]byte, 0, 256)
	b = append(b, "sm1|cat="...)
	b = cat.AppendFingerprint(b)
	// Active objectives with the level precisions of the run's pruning
	// plan, exact to the float bit: RTA's αi = α^(1/n) folds the member's
	// relation count into the precision, so only same-precision runs (EXA
	// always; RTA/IRA iterations of equal α and n) ever share.
	b = append(b, "|cfg="...)
	start := len(b)
	for o := range e.opts.Objectives.All() {
		if len(b) > start {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(o), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, e.prune.level[o], 'g', -1, 64)
	}
	b = append(b, "|dop="...)
	b = strconv.AppendInt(b, int64(e.opts.MaxDOP), 10)
	b = append(b, "|smp="...)
	b = strconv.AppendBool(b, e.opts.sampling())
	if p := e.m.Params(); p != costmodel.Default() {
		b = fmt.Appendf(b, "|params=%v", p)
	}
	e.sharedPrefix = b

	// Relation fragments: the local index, then the relation's key. The
	// local index matters — compact plan entries address relations by
	// query-local index, so archives are shared only between queries that
	// agree on the mapping.
	e.sharedRels = make([][]byte, len(e.q.Relations))
	for i := range e.q.Relations {
		rb := make([]byte, 0, len(cat.Table(e.q.Relations[i].Table).Name)+48)
		rb = strconv.AppendInt(rb, int64(i), 10)
		rb = append(rb, ':')
		rb = e.q.AppendRelationKey(rb, i)
		e.sharedRels[i] = append(rb, ';')
	}

	// Edge fragments in declaration order (see sharedEdge).
	e.sharedEdges = make([]sharedEdge, len(e.q.Edges))
	for i, ed := range e.q.Edges {
		eb := make([]byte, 0, len(ed.LeftCol)+len(ed.RightCol)+64)
		e.sharedEdges[i] = sharedEdge{
			both: query.Singleton(ed.Left).Add(ed.Right),
			frag: append(ed.AppendKey(eb), ';'),
		}
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
	b = strconv.AppendUint(b, uint64(s), 16)
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

// engineRuns counts dynamic-program executions process-wide (one per
// engine.run/runScalar, one per IRA iteration). The batch tests read it
// to assert that duplicate batch members run exactly one DP.
var engineRuns atomic.Int64

// EngineRuns returns the process-wide count of dynamic-program
// executions started so far.
func EngineRuns() int64 { return engineRuns.Load() }

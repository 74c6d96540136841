package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/query"
)

// worker holds the goroutine-private state of one DP worker: candidate
// counters, the amortized deadline tick, and the largest-id table set it
// treated completely. Workers never share mutable state on the hot path —
// each builds the archives of its own sets against the immutable archives
// of lower levels — so the only synchronization is the level barrier and
// the engine's shared timeout flag.
type worker struct {
	e          *engine
	considered int
	// splits counts the ordered split pairs this worker's candidate
	// loops visited, including pairs filtered out before costing
	// (Stats.EnumSplits) — the scanning work the per-set loop dispatch
	// changes.
	splits    int
	checkTick int
	// maxDoneID/maxDoneLen track the last (largest-id) set this worker
	// treated completely, feeding the "Pareto plans of the last table set
	// treated completely" metric. A worker claims ids in ascending order
	// (levelPool.drain), so plain assignment keeps the maximum.
	maxDoneID  int32
	maxDoneLen int
	// reduced is the degraded mode's per-worker scratch: the weighted-best
	// entry index of every stored subset, rebuilt (capacity reused) for
	// each degraded table set instead of allocating a fresh map.
	reduced map[query.TableSet]int32
	// pairs is the traversal and edge-cut candidate loops' per-worker
	// scratch: the valid ordered splits of the current table set, buffered
	// so they can be emitted in the subset scan's canonical order
	// (capacity reused across sets).
	pairs []splitPair
	// treeStack/treeOrder/treeParent/treeSub are the edge-cut candidate
	// loop's per-worker scratch (forEachCandidateTree): DFS stack,
	// pre-order, parent links, and accumulated subtree sets, indexed by
	// relation (at most 64).
	treeStack  [64]int8
	treeOrder  [64]int8
	treeParent [64]int8
	treeSub    [64]query.TableSet
	// terms is the candidate loops' scratch: the prepared cost terms of
	// the current split, one per (operator, DOP), in emission order. A
	// fixed array, so a run allocates nothing for it however many workers
	// it has.
	terms [maxSplitTerms]costmodel.JoinTerms
	// floors are the split's terms folded per operator over its DOPs
	// (costmodel.MinTerms), and fill is the archive the candidates are bound
	// for — set by fullSet around its candidate loop, nil in every other mode,
	// whose candidates go to a bestTracker. With both, joinPairs can ask the
	// archive about an operator's DOP variants at once; floorRejected counts
	// the candidates rejected that way, never costed.
	floors        [len(joinAlgs)]costmodel.JoinTerms
	fill          *pareto.FlatArchive
	floorRejected int
	// lmin and rmin are the column minima of the split's outer and inner
	// sub-plans (columnMins), per block of blockRows and, last, per side; the
	// floors over them let joinPairs reject a whole run of sub-plan pairs at
	// once, and blockRejected counts the candidates rejected so (a part of
	// floorRejected). Fixed arrays, so a run allocates nothing for them.
	lmin, rmin    [maxBlocks + 1]objective.Vector
	blockRejected int
	// nears are the second hints of the split at hand, one per inner sub-plan
	// and operator (joinPairs), and near is the one of the current candidate:
	// fullSet's callback hands it to the archive beside cost. A fixed array
	// like terms, so a run allocates nothing for it.
	nears [nearSlots]int32
	near  *int32
	// cost is the current candidate's cost vector: the candidate loops
	// apply the split's terms into it and the archive reads it in place
	// (candidateFn), so a candidate's costs never travel by value through
	// the loop's call frames.
	cost objective.Vector
	// arena holds the rows of every archive this worker fills
	// (worker.open), one after another, for this run only.
	arena *pareto.Arena
	// keyBuf is the shared-memo key scratch (sharedKey); sharedHits counts
	// table sets this worker served from the batch's shared memo.
	keyBuf     []byte
	sharedHits int
	// Workers sit side by side in engine.workers and each writes its own
	// cost and considered once per candidate; the pad keeps the tail of one
	// worker and the head of the next on different cache lines.
	_ [64]byte
}

// nearSlots is the size of a worker's second-hint table: a power of two, and
// enough for 341 inner sub-plans under three operators before slots are shared.
const nearSlots = 1024

// observe polls the run's stop signals (amortized by the caller): the
// context first — a cancellation latches the engine-wide cancelled flag, a
// context deadline latches the timeout flag — then the wall-clock deadline.
// Latching makes every other worker react promptly without re-polling.
func (w *worker) observe() {
	e := w.e
	if e.ctxDone != nil {
		select {
		case <-e.ctxDone:
			if errors.Is(e.ctx.Err(), context.DeadlineExceeded) {
				e.timedOut.Store(true)
			} else {
				e.cancelled.Store(true)
			}
			return
		default:
		}
	}
	if e.hasTimeout && time.Now().After(e.deadline) {
		e.timedOut.Store(true)
	}
}

// expired checks the run's deadline and context (amortized: every 1024
// calls per worker) and reports whether this worker should stop exhaustive
// work — either to degrade (timeout) or to abandon the run (cancellation;
// the engine's cancelled latch tells the two apart).
func (w *worker) expired() bool {
	e := w.e
	if e.cancelled.Load() || e.timedOut.Load() {
		return true
	}
	if !e.hasTimeout && e.ctxDone == nil {
		return false
	}
	w.checkTick++
	if w.checkTick&1023 != 0 {
		return false
	}
	w.observe()
	return e.cancelled.Load() || e.timedOut.Load()
}

// pollFree reports whether fullSet's candidate callback would answer "go on"
// to each of the next n candidates without looking at the clock or the
// context: no stop is latched, and either nothing is armed or none of the n
// ticks is a 1024th. Only then may joinPairs reject the n unoffered (adding n
// to checkTick, which nothing reads when nothing is armed) and have a timeout
// still land on the candidate it lands on when each is offered.
func (w *worker) pollFree(n int) bool {
	e := w.e
	if e.cancelled.Load() || e.timedOut.Load() {
		return false
	}
	if !e.hasTimeout && e.ctxDone == nil {
		return true
	}
	return w.checkTick&1023+n < 1024
}

// interrupted reports whether the run's context was cancelled. Unlike
// expired it never reports a plain timeout: the scalar dynamic program has
// no degraded mode — it must either enumerate every candidate or abort with
// an error, since a partial enumeration would silently return a
// non-optimal plan.
func (w *worker) interrupted() bool {
	e := w.e
	if e.cancelled.Load() {
		return true
	}
	if e.ctxDone == nil {
		return false
	}
	w.checkTick++
	if w.checkTick&1023 != 0 {
		return false
	}
	w.observe()
	return e.cancelled.Load()
}

// markDone records a completely treated set.
func (w *worker) markDone(id int32, archiveLen int) {
	w.maxDoneID = id
	w.maxDoneLen = archiveLen
}

// poolSpawned counts worker-goroutine launches process-wide. The
// scheduler-churn regression benchmark reads it to show the persistent
// pool spawns once per run, where the old per-level barrier respawned the
// whole pool at every cardinality level.
var poolSpawned atomic.Int64

// levelPool is the engine's persistent worker pool: nw-1 goroutines are
// spawned once per run (the coordinator doubles as worker 0) and parked on
// per-worker wake channels between levels. For each level the coordinator
// publishes the level's sets, resets the claim cursor, wakes as many
// workers as the level has sets to spare, and participates; every worker
// claims the level's next set with one atomic add on the cursor until the
// level is drained, so a straggler set idles no other worker and each
// worker's claims ascend over the level slice (and over memo ids).
type levelPool struct {
	e     *engine
	treat func(w *worker, id int32, s query.TableSet)

	// Per-level inputs, published before the wake-channel sends (the
	// send/receive pair orders the writes for the woken workers).
	sets []query.TableSet
	base int32
	// next is the level's claim cursor: the index into sets of the next
	// unclaimed set.
	next atomic.Int32

	wake []chan struct{} // one per spawned worker (indices 1..nw-1)
	wg   sync.WaitGroup
	// exited is done when every spawned goroutine has returned (shutdown).
	exited sync.WaitGroup
}

// start spawns the run's nw-1 pool goroutines; a one-worker run spawns none.
func (p *levelPool) start(e *engine, treat func(w *worker, id int32, s query.TableSet)) {
	nw := len(e.workers)
	p.e, p.treat = e, treat
	p.wake = make([]chan struct{}, nw-1)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
	}
	p.exited.Add(nw - 1)
	for wi := 1; wi < nw; wi++ {
		poolSpawned.Add(1)
		go p.loop(wi)
	}
}

// loop parks worker wi between levels; a closed wake channel retires it.
func (p *levelPool) loop(wi int) {
	defer p.exited.Done()
	for range p.wake[wi-1] {
		p.drain(wi)
		p.wg.Done()
	}
}

// shutdown retires the spawned workers and returns once each has left its
// loop, so a run leaves no goroutine behind (the runtime retires each a
// moment after). Called only after the last level's wg.Wait, so every
// worker is parked on its wake channel.
func (p *levelPool) shutdown() {
	for _, c := range p.wake {
		close(c)
	}
	p.exited.Wait()
}

// runLevel treats one level across the pool and blocks until every set of
// the level is treated (or the run is cancelled). A one-set level or a
// one-worker run wakes nobody.
func (p *levelPool) runLevel(sets []query.TableSet, base int32) {
	p.sets, p.base = sets, base
	p.next.Store(0)
	woken := min(len(p.wake), max(len(sets)-1, 0))
	p.wg.Add(woken)
	for _, c := range p.wake[:woken] {
		c <- struct{}{}
	}
	p.drain(0)
	p.wg.Wait()
}

// drain runs worker wi's share of the current level: it claims sets from
// the cursor until the level is exhausted. Sets claimed by other workers
// may still be in flight when it returns, which runLevel's wg.Wait covers.
func (p *levelPool) drain(wi int) {
	e := p.e
	w := &e.workers[wi]
	for {
		i := p.next.Add(1) - 1
		if int(i) >= len(p.sets) || e.cancelled.Load() {
			return
		}
		p.treat(w, p.base+i, p.sets[i])
	}
}

// runLevels drives the level-synchronized dynamic program: for each
// cardinality level in turn, the level's table sets are claimed by the
// engine's workers (levelPool.runLevel), and the next level starts only
// after every set of the level is treated. treat handles one table set
// (exhaustively, degraded, or scalar-pruned, depending on the engine mode).
//
// The pool is spawned here and retired on return. Results are
// deterministic regardless of the schedule, because each set's archive
// depends only on the immutable lower levels.
// A cancelled context short-circuits the remaining levels: every worker
// parks at the level boundary (no goroutine outlives the run) and the
// loop returns without touching the remaining sets.
func (e *engine) runLevels(treat func(w *worker, id int32, s query.TableSet)) {
	// Panic containment: a panic while treating one set is recovered
	// here, latches the run as cancelled (cancelErr reports
	// ErrEnginePanic), and every worker — including the spawned pool
	// goroutines, whose panics would otherwise kill the process — parks
	// at the next poll. One wrapper covers run and runScalar, since both
	// go through this treat.
	inner := treat
	treat = func(w *worker, id int32, s query.TableSet) {
		defer e.containPanic()
		if hp := panicHook.Load(); hp != nil {
			(*hp)(id)
		}
		inner(w, id, s)
	}
	e.pool.start(e, treat)
	defer e.pool.shutdown()
	nextID := int32(0)
	for k := 1; k <= e.enum.n; k++ {
		if e.cancelled.Load() {
			return
		}
		sets := e.enum.levels[k]
		e.pool.runLevel(sets, nextID)
		nextID += int32(len(sets))
	}
}

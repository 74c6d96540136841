package core

import (
	"sync"
	"sync/atomic"

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
	// (levelPool.drain), but the sets it defers finish after the level's
	// later ones, so markDone keeps the maximum.
	maxDoneID  int32
	maxDoneLen int
	// best is keepBest's per-worker scratch, by memo id: one more than the
	// index of a stored set's weighted-best row, 0 until a split first
	// reads the set. A set is read only once its level is finished, after
	// which its archive never changes, so the entries hold for the run.
	best []int32
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
	// owned is the shared-memo key of the set this worker is solving, ""
	// when it owns none; deferred are the sets of the current level it
	// found in flight in another run (fullSet), reused across levels; and
	// resuming is set while levelPool.drain treats them again.
	owned    string
	deferred []deferredSet
	resuming bool
	// Workers sit side by side in engine.workers and each writes its own
	// cost and considered once per candidate; the pad keeps the tail of one
	// worker and the head of the next on different cache lines.
	_ [64]byte
}

// nearSlots is the size of a worker's second-hint table: a power of two, and
// enough for 341 inner sub-plans under three operators before slots are shared.
const nearSlots = 1024

// expired checks the run's context (amortized: every 1024 calls per
// worker) and reports whether this worker should stop exhaustive work —
// either to degrade (deadline) or to abandon the run (cancellation; the
// engine's cancelled latch tells the two apart).
func (w *worker) expired() bool {
	e := w.e
	if e.cancelled.Load() || e.timedOut.Load() {
		return true
	}
	if e.ctxDone == nil {
		return false
	}
	w.checkTick++
	if w.checkTick&1023 != 0 {
		return false
	}
	return e.stopped()
}

// pollFree reports whether fullSet's candidate callback would answer "go on"
// to each of the next n candidates: no stop is latched, and either the
// context cannot end, none of the n ticks is a 1024th, or the context has not
// ended at a peek (engine.ended) that stands in for the poll the run would
// make among them. Only then may joinPairs reject the n unoffered (adding n to
// checkTick, which nothing reads when the context cannot end) and have a
// deadline still land on the candidate it lands on when each is offered: a
// peek latches nothing, so a context that has ended sends the n down the
// per-candidate path, whose poll latches the stop where it always did.
func (w *worker) pollFree(n int) bool {
	e := w.e
	if e.cancelled.Load() || e.timedOut.Load() {
		return false
	}
	if e.ctxDone == nil || w.checkTick&1023+n < 1024 {
		return true
	}
	return !e.ended()
}

// interrupted reports whether the run's context was cancelled. Unlike
// expired it never reports a passed deadline: a degraded set must still
// produce its plan, and a keep-best program's set enumerates every
// candidate or aborts, since a partial one would return a non-optimal plan.
// The poll may still latch timedOut; runScalar resets it afterwards.
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
	e.stopped()
	return e.cancelled.Load()
}

// deferredSet is a table set fullSet deferred: its memo id and its set.
type deferredSet struct {
	id int32
	s  query.TableSet
}

// markDone records a completely treated set.
func (w *worker) markDone(id int32, archiveLen int) {
	if id > w.maxDoneID {
		w.maxDoneID = id
		w.maxDoneLen = archiveLen
	}
}

// poolSpawned counts worker-goroutine launches process-wide. The
// scheduler-churn regression benchmark reads it to show the persistent
// pool spawns once per run, where the old per-level barrier respawned the
// whole pool at every cardinality level.
var poolSpawned atomic.Int64

// sequentialBelow is the PredictCost under which a run uses one worker,
// whatever Options.Workers asks. On two cores every run of the scoreboard's
// cold list at 972 and below (TPC-H q2, q3, q10 and q21 under RTA at three
// objectives) ran at 0.52–0.86× its one-worker speed with a second worker;
// the cutoff sits in the gap to the next run up, at 2 592. The keep-best
// runs it puts on one worker under EXA's term (up to four tables at one
// objective, three at three) ran at 0.59–0.70× with a second one
// (BenchmarkPoolCutoff; the tables are in ROADMAP item 7(a)).
const sequentialBelow = 1500

// poolForced lifts the sequentialBelow cutoff (the widest-level cap still
// holds), so tests can drive the pool on small shapes. Only tests set it.
var poolForced bool

// poolSize is the number of workers e's run uses: one when PredictCost of
// the run is below sequentialBelow, and otherwise Options.Workers capped at
// the widest level's set count, since runLevel never wakes more workers than
// a level has sets. The run is priced as EXA at exact set precision (which
// the keep-best programs share) and as RTA otherwise, so each IRA iteration
// decides for itself. Options.Workers is an upper bound; the answer and
// Stats do not depend on the count.
func (e *engine) poolSize() int {
	algorithm := "rta"
	if e.prune.set.Max(e.opts.Objectives) <= 1 {
		algorithm = "exa"
	}
	if e.opts.Workers == 1 || !poolForced &&
		PredictCost(e.q.NumRelations(), e.opts.Objectives.Len(), algorithm) < sequentialBelow {
		return 1
	}
	widest := 1
	for _, level := range e.enum.levels {
		widest = max(widest, len(level))
	}
	return min(e.opts.Workers, widest)
}

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
// the cursor until the level is exhausted, then treats again the sets it
// deferred because another run was solving them (fullSet), this time
// waiting for each: a worker waits only once it has nothing left to claim.
// Sets claimed by other workers may still be in flight when it returns,
// which runLevel's wg.Wait covers.
func (p *levelPool) drain(wi int) {
	e := p.e
	w := &e.workers[wi]
	for {
		i := p.next.Add(1) - 1
		if int(i) >= len(p.sets) || e.cancelled.Load() {
			break
		}
		p.treat(w, p.base+i, p.sets[i])
	}
	w.resuming = true
	for _, d := range w.deferred {
		if e.cancelled.Load() {
			break
		}
		p.treat(w, d.id, d.s)
	}
	w.resuming = false
	w.deferred = w.deferred[:0]
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
		defer e.containPanic(w)
		if hp := panicHook.Load(); hp != nil && !w.resuming {
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

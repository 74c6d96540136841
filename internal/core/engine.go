package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// engine is the shared bushy dynamic program over table-set bitsets. It
// implements FindParetoPlans of Algorithms 1 and 2: archives with pruning
// precision 1 yield the EXA, precision > 1 the RTA.
//
// The engine is layered into four decoupled pieces:
//
//   - an enumerator (enumerator.go) that materializes the table sets of
//     each cardinality level and assigns dense integer ids,
//   - a slice-backed memo table (memoTable) of flat Pareto archives
//     indexed by those ids,
//   - a level-synchronized worker pool (pool.go) that shards each level
//     across up to Options.Workers goroutines (poolSize), and
//   - a deferred materializer (internal/plan) that rebuilds plan trees
//     from the memo's compact entries when a Frontier's plans are read.
//
// The hot path is allocation-free: candidates are (cost vector, compact
// entry) pairs on the stack, archives store cost rows in one contiguous
// backing array (pareto.FlatArchive) that grows in place in the worker's
// arena (pareto.Arena), and *plan.Node trees exist only for the ≤
// frontier-size plans of the extracted Frontier.
//
// All table sets of cardinality k depend only on sets of cardinality
// < k, so levels parallelize without locks: workers write disjoint memo
// slots and read only lower levels, which the level barrier has made
// immutable. With Workers=1 the engine is exactly the sequential dynamic
// program of the paper, candidate for candidate.
type engine struct {
	q    *query.Query
	m    *costmodel.Model
	opts Options

	// prune is the run's pruning plan (newPruning): every archive of the
	// run prunes by its one configuration.
	prune pruning

	// weights score the one plan each keep-best set keeps (keepBest).
	weights objective.Weights

	// shared, when non-nil, is the batch's cross-query archive store.
	// sharedPrefix/sharedRels/sharedEdges are the precomputed key pieces
	// (prepareShared) the per-set key builder assembles from.
	shared       *SharedMemo
	sharedPrefix []byte
	sharedRels   [][]byte
	sharedEdges  []sharedEdge
	// awaitOnce registers, the first time a worker of the run waits on
	// another run's key, the wake of the shared memo's waiters when ctx
	// ends (armWake); stopAwait unregisters it when the run returns.
	awaitOnce sync.Once
	stopAwait func() bool

	enum *enumeration
	memo *memoTable
	// viewMemo is the split-side lookup of the full (non-degraded) mode,
	// bound once so the hot path does not re-create the closure per set.
	viewMemo func(query.TableSet) splitView

	workers []worker

	// ctx carries the caller's cancellation and deadline into the dynamic
	// program; ctxDone is ctx.Done() bound once (nil for a context that can
	// never end — no deadline, no cancel — keeping the amortized check free).
	ctx     context.Context
	ctxDone <-chan struct{}
	// deadline is ctx's deadline, zero when it has none: the poll reads the
	// clock against it too, so a run degrades at its deadline even before
	// the context's timer has fired.
	deadline time.Time

	// timedOut is shared across workers: the first poll (stopped) to find
	// the context's deadline passed latches it, switching every worker to
	// degraded mode — the run degrades gracefully and still returns a plan
	// (paper Section 5.1).
	timedOut atomic.Bool
	// cancelled is latched when the context is cancelled for any reason
	// other than a deadline (client disconnect, explicit cancel). Unlike a
	// timeout there is no caller left to serve, so workers abandon their
	// remaining sets instead of degrading, and the run reports ctx.Err().
	cancelled atomic.Bool
	// panicInfo holds the first panic recovered inside a worker. A panic
	// latches cancelled (so every worker parks at the level boundary and
	// the pool winds down normally) and cancelErr reports it as
	// ErrEnginePanic instead of a context error.
	panicInfo atomic.Pointer[enginePanic]
	// invalid latches the query's structural error (query.Validate) in
	// newEngine: a disconnected join graph has no plan without Cartesian
	// products, which the engine does not enumerate. Nothing is then
	// enumerated, run and runScalar return at once, and cancelErr reports
	// it before anything else.
	invalid error

	// pool schedules each level's sets onto the workers (runLevels). Its
	// cursor is written on every claim, so it sits last, apart from the
	// latches above that every candidate reads.
	pool levelPool
}

// enginePanic captures one recovered worker panic.
type enginePanic struct {
	val   any
	stack []byte
}

// ErrEnginePanic marks a run abandoned because a worker panicked. The
// wrapped error text carries the panic value and stack; callers match
// with errors.Is and must treat the run's result as void.
var ErrEnginePanic = errors.New("core: panic during optimization")

// recordPanic latches the first recovered panic and cancels the run.
// The cancelled latch is what makes containment safe: every other
// worker parks at its next poll, the level barrier completes, and the
// pool shuts down through the normal path — no goroutine is left
// parked on a level that never ends.
func (e *engine) recordPanic(r any) {
	e.panicInfo.CompareAndSwap(nil, &enginePanic{val: r, stack: debug.Stack()})
	e.cancelled.Store(true)
}

// containPanic is deferred around every set w treats. A set w owns in the
// shared memo is abandoned, so no other run waits on it forever.
func (e *engine) containPanic(w *worker) {
	if r := recover(); r != nil {
		e.recordPanic(r)
		if w.owned != "" {
			e.shared.release(w.owned, nil)
			w.owned = ""
		}
	}
}

// panicHook is a chaos-test seam: when set, it is called with each
// treated set's memo id before the set is treated, from whichever
// worker goroutine claims the set — once per set, not again when a set
// deferred to another run's owner is resumed. Install via SetPanicHook.
var panicHook atomic.Pointer[func(id int32)]

// SetPanicHook installs (nil clears) a function invoked for every
// treated table set — a seam for panic-containment and chaos tests to
// crash a worker mid-run. Not for production use.
func SetPanicHook(h func(id int32)) {
	if h == nil {
		panicHook.Store(nil)
		return
	}
	panicHook.Store(&h)
}

// joinAlgs are the join operators of a predicate-connected split, in the
// engine's canonical enumeration order.
var joinAlgs = [...]plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin}

// cartesianAlgs are the operators of a split without a join predicate:
// hash and sort-merge joins need an equi-join predicate.
var cartesianAlgs = joinAlgs[2:]

// maxSplitTerms bounds the (operator, DOP) combinations of one split.
const maxSplitTerms = len(joinAlgs) * plan.MaxDOP

// pruning is a run's pruning plan, the one place its archives are
// configured: set is the precision its frontier is asked for (1 for EXA and
// the keep-best programs, αU or Options.Precision for RTA, α(i) for an IRA
// iteration), level = levelPrecision(set, |Q|) what every level prunes at,
// and cfg the archives' one configuration, built from level with the
// active-objective ids resolved once, so archive inserts never allocate.
type pruning struct {
	set, level objective.Precision
	cfg        *pareto.FlatConfig
}

// newPruning builds the pruning plan of a run over objs at set precision set
// on a query of n relations. An empty query is newEngine's error to report,
// so n is clamped to 1 (the 0-th root is +Inf).
func newPruning(objs objective.Set, set objective.Precision, n int) pruning {
	level := levelPrecision(set, max(1, n))
	return pruning{set: set, level: level, cfg: pareto.NewFlatPrecisionConfig(objs, level)}
}

// levelPrecision turns a run's set precision into the precision every level
// prunes at: the component-wise n-th root, n = |Q| (Algorithm 2's
// αi = αU^(1/|Q|); by Theorem 3's induction the full set is then
// set-approximate).
func levelPrecision(set objective.Precision, n int) objective.Precision { return set.Root(n) }

// newEngine prepares an engine run over opts.Objectives at set precision set
// (see pruning), with the workers its pool is sized for (poolSize). opts must
// be normalized (Workers >= 1). ctx cancellation aborts the run; a ctx
// deadline degrades it (stopped).
func newEngine(ctx context.Context, m *costmodel.Model, opts Options, set objective.Precision, w objective.Weights) *engine {
	e := &engine{
		q:       m.Query(),
		m:       m,
		opts:    opts,
		prune:   newPruning(opts.Objectives, set, m.Query().NumRelations()),
		weights: w,
		ctx:     ctx,
		ctxDone: ctx.Done(),
	}
	e.deadline, _ = ctx.Deadline()
	if err := e.q.Validate(); err != nil {
		e.invalid = fmt.Errorf("core: %w", err)
		return e
	}
	// Level materialization polls the context too (a clique's walk visits
	// all 2^n subsets) and falls back to the chain enumeration of the §5.1
	// degraded path.
	e.enum = enumerate(e.q, e.stopped)
	// The one place a run's estimate table is filled: the workers cost only
	// table sets that passed a memo lookup, all of them enumerated, so from
	// here on they read the table and never write it.
	m.Warm(e.enum.levels, e.enum.total)
	e.memo = newMemoTable(e.enum)
	e.viewMemo = func(s query.TableSet) splitView {
		return splitView{arch: e.memo.lookup(s), only: -1}
	}
	e.workers = make([]worker, e.poolSize())
	for i := range e.workers {
		e.workers[i] = worker{e: e, maxDoneID: -1}
	}
	return e
}

// stopped is the run's one stop poll, amortized by its callers (the
// enumerator, worker.expired, worker.interrupted). It reads the context and
// latches what it finds — a passed deadline latches timedOut, any other end
// cancelled — so every other worker reacts at its next latch read without
// polling, and reports whether the run must stop.
func (e *engine) stopped() bool {
	select {
	case <-e.ctxDone:
		if errors.Is(e.ctx.Err(), context.DeadlineExceeded) {
			e.timedOut.Store(true)
		} else {
			e.cancelled.Store(true)
		}
		return true
	default:
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		e.timedOut.Store(true)
		return true
	}
	return false
}

// ended reports whether the run's context has ended, as stopped would, but
// latches nothing: it is the peek pollFree stands in for a poll with.
func (e *engine) ended() bool {
	select {
	case <-e.ctxDone:
		return true
	default:
	}
	return !e.deadline.IsZero() && time.Now().After(e.deadline)
}

// cancelErr returns the context's error if the run was abandoned because
// of a cancellation (not a deadline — deadlines degrade and still produce
// a result). Called by the algorithms after run()/runScalar() return.
// An invalid query is reported first (the run did nothing), then a
// recovered worker panic: it latches the same cancelled flag, but the
// context has no error to report — without the ordering the caller would
// see a spurious context.Canceled and the panic would vanish.
func (e *engine) cancelErr() error {
	if e.invalid != nil {
		return e.invalid
	}
	if p := e.panicInfo.Load(); p != nil {
		return fmt.Errorf("%w: %v\n%s", ErrEnginePanic, p.val, p.stack)
	}
	if !e.cancelled.Load() {
		return nil
	}
	if err := context.Cause(e.ctx); err != nil {
		return err
	}
	return context.Canceled
}

// dpRowsPerSet sizes the first arena chunk of a multi-objective run: rows
// per enumerated table set, for each worker. The cold_w1 list stores 28
// rows per set on average, so one worker's first chunk is seldom more than
// the run fills; a set's archive grows past its chunk only on the larger
// runs, whose next chunks double. maxFirstChunkRows (about 7.5 MB of rows)
// caps it on enumerations of tens of thousands of sets, where a run cut
// short by its deadline keeps one plan per set and would not fill eight.
const (
	dpRowsPerSet      = 8
	maxFirstChunkRows = 1 << 16
)

// startArenas gives every worker its arena for this run, each with a first
// chunk of rowsPerSet rows per enumerated table set, all of them carved
// from one allocation (pareto.MakeArenas). The arenas live as long as the
// archives in them: they are never handed to another run, since a shared
// memo may publish an archive and keep its chunk alive.
func (e *engine) startArenas(rowsPerSet int) {
	arenas := pareto.MakeArenas(len(e.workers), min(rowsPerSet*e.enum.total, maxFirstChunkRows))
	for i := range e.workers {
		e.workers[i].arena = &arenas[i]
	}
}

// run executes the dynamic program and returns the flat archive of the
// full table set. It mirrors FindParetoPlans of Algorithm 1/2: plans for
// singleton sets first, then table sets of increasing cardinality. The
// caller extracts the result with finish.
func (e *engine) run() *pareto.FlatArchive {
	if e.invalid != nil {
		return nil
	}
	engineRuns.Add(1)
	e.startArenas(dpRowsPerSet)
	if e.opts.Shared != nil {
		e.shared = e.opts.Shared
		e.prepareShared()
	}
	e.runLevels(func(w *worker, id int32, s query.TableSet) {
		if s.Single() {
			w.scanSet(id, s)
		} else if w.expired() {
			w.stoppedSet(id, s)
		} else {
			w.fullSet(id, s)
		}
	})
	if e.stopAwait != nil {
		e.stopAwait()
	}
	return e.memo.lookup(e.enum.all)
}

// stoppedSet treats a set the run reaches after its stop: a timeout
// degrades it to a single best-weighted plan (paper Section 5.1); after a
// cancellation there is no caller left to serve, so the set is skipped
// entirely — the run reports ctx.Err().
func (w *worker) stoppedSet(id int32, s query.TableSet) {
	if !w.e.cancelled.Load() {
		w.keepBest(id, s)
	}
}

// runScalar executes the keep-best dynamic program: every table set keeps
// the one plan with the least weighted cost (keepBest) — Selinger's
// algorithm for a weight on one objective, the unsound baseline of the
// paper's Example 1 for several. It has no degraded levels: only the
// enumeration's chain fallback truncates it, and only then is it TimedOut.
// Returns the full table set's one-plan archive.
func (e *engine) runScalar() *pareto.FlatArchive {
	if e.invalid != nil {
		return nil
	}
	engineRuns.Add(1)
	e.startArenas(1)
	e.runLevels(func(w *worker, id int32, s query.TableSet) {
		if s.Single() {
			w.scanBestSet(id, s)
		} else {
			w.markDone(id, w.keepBest(id, s).Len())
		}
	})
	// The levels' polls may have latched a deadline they then ignored.
	e.timedOut.Store(e.enum.chainFallback)
	return e.memo.lookup(e.enum.all)
}

// bestTracker tracks the candidate of one enumeration with the least
// weighted cost — the state of keepBest and scanBestSet. Ties break toward
// the earliest candidate (strict <), keeping results deterministic.
type bestTracker struct {
	cost  objective.Vector
	ent   plan.Entry
	best  float64
	found bool
}

func newBestTracker() bestTracker { return bestTracker{best: math.Inf(1)} }

// offer keeps the candidate if it strictly improves the tracked cost.
func (t *bestTracker) offer(c objective.Vector, e plan.Entry, scalar float64) {
	if scalar < t.best {
		t.cost, t.ent, t.best, t.found = c, e, scalar, true
	}
}

// archive stores the tracked best (if any) as the closed archive of set id.
func (t *bestTracker) archive(w *worker, id int32) *pareto.FlatArchive {
	a := w.open(id)
	if t.found {
		a.Insert(t.cost, t.ent)
	}
	w.arena.Close(a)
	return a
}

// open starts the archive of set id in the memo: its header is the set's
// slot in the memo's slab, its rows start at the worker's arena tail. The
// worker closes it (pareto.Arena.Close) where the set is done, before any
// other worker reads it.
func (w *worker) open(id int32) *pareto.FlatArchive {
	m := w.e.memo
	a := &m.slab[id].arch
	w.arena.Open(a, w.e.prune.cfg)
	m.archives[id] = a
	return a
}

// scanSet fills the archive of a singleton set with all access paths.
func (w *worker) scanSet(id int32, s query.TableSet) {
	e := w.e
	a := w.open(id)
	e.m.EachScanAlternative(s.First(), e.opts.sampling(), func(alg plan.ScanAlg, rate float64, cost objective.Vector) bool {
		w.considered++
		a.Insert(cost, plan.ScanEntry(alg, rate))
		return true
	})
	w.arena.Close(a)
	w.markDone(id, a.Len())
}

// scanBestSet is scanSet for the keep-best dynamic program: it keeps only
// the access path with the least weighted cost.
func (w *worker) scanBestSet(id int32, s query.TableSet) {
	e := w.e
	t := newBestTracker()
	e.m.EachScanAlternative(s.First(), e.opts.sampling(), func(alg plan.ScanAlg, rate float64, cost objective.Vector) bool {
		w.considered++
		t.offer(cost, plan.ScanEntry(alg, rate), e.weights.Cost(cost))
		return true
	})
	a := t.archive(w, id)
	w.markDone(id, a.Len())
}

// fullSet treats one table set exhaustively, inserting every candidate
// into its archive. If the timeout fires mid-set, the set's archive is
// kept as-is and completion is not recorded.
//
// With a shared memo attached, the set is first acquired by its canonical
// subproblem key (SharedMemo.acquire): a hit installs the published
// archive verbatim — bit-for-bit what the enumeration below would have
// built (see SharedMemo) — and skips the candidate loop. A key in flight
// in another run defers the set (levelPool.drain resumes it once the level
// has nothing left to claim, and the resumed lookup waits). Otherwise the
// worker owns the key, runs the loop, and releases the key: it publishes
// the archive only when the set completed and the run is neither timed out
// nor cancelled, and abandons the key otherwise, since degraded runs may
// hold truncated lower-level archives. The timeout latch
// is set before the level barrier that precedes this set, so observing it
// unlatched here proves every lower level was treated in full. Only
// fullSet touches the shared memo — keepBest keeps weight-dependent
// archives that must never be shared.
func (w *worker) fullSet(id int32, s query.TableSet) {
	e := w.e
	if e.shared != nil {
		a, owned := e.shared.acquire(w.sharedKey(s), nil)
		if a == nil && owned == "" && w.resuming {
			// Still in flight now that the level has nothing left to claim:
			// wait for it.
			e.armWake()
			a, owned = e.shared.acquire(w.keyBuf, e.waitOver)
		}
		switch {
		case a != nil:
			e.memo.archives[id] = a
			w.sharedHits++
			w.markDone(id, a.Len())
			return
		case owned != "":
			w.owned = owned
		case !w.resuming:
			if w.deferred == nil {
				w.deferred = make([]deferredSet, 0, len(e.enum.levels[s.Len()]))
			}
			w.deferred = append(w.deferred, deferredSet{id, s})
			return
		default: // the run's context ended while the worker waited
			e.stopped()
			w.stoppedSet(id, s)
			return
		}
	}
	a := w.open(id)
	w.fill = a
	complete := w.forEachCandidate(s, e.viewMemo, func(cost *objective.Vector, ent plan.Entry) bool {
		a.InsertRowNear(cost, ent, w.near)
		return !w.expired()
	})
	w.arena.Close(a) // before any other worker reads it, complete or not
	w.fill = nil
	if complete {
		w.markDone(id, a.Len())
	}
	if w.owned != "" {
		var published *pareto.FlatArchive
		if complete && !e.timedOut.Load() && !e.cancelled.Load() {
			published = a
		}
		e.shared.release(w.owned, published)
		w.owned = ""
	}
}

// armWake arranges, once per run and only for a run that has to wait on
// another run's key, for the shared memo to wake its waiters when the
// run's context ends, so a waiter sees waitOver turn true.
func (e *engine) armWake() {
	if e.ctxDone != nil {
		e.awaitOnce.Do(func() { e.stopAwait = context.AfterFunc(e.ctx, e.shared.wake) })
	}
}

// waitOver reports whether a worker waiting on another run's key must stop
// waiting: a stop is latched, or the run's context has ended (fullSet then
// latches which, with stopped). The shared memo is locked while it runs,
// so it reads the latches and the Done channel and calls nothing of the
// context's.
func (e *engine) waitOver() bool {
	if e.cancelled.Load() || e.timedOut.Load() {
		return true
	}
	select {
	case <-e.ctxDone:
		return true
	default:
		return false
	}
}

// keepBest stores a single plan for table set s, the candidate with the
// least weighted cost: every set of the keep-best program (runScalar), and
// the sets a timeout leaves untreated (paper Section 5.1). Each split
// combines only the weighted-best plan of either side: the worker narrows a
// subset's archive to that entry the first time a split reads it and keeps
// the index for the run (worker.best), so a degraded set costs in
// proportion to the splits it enumerates. A one-plan archive narrows to
// itself. Only a cancellation stops it (worker.interrupted). It returns the
// set's archive; the caller says whether the set counts as treated
// completely (markDone): a keep-best program's set does, a degraded one
// does not.
func (w *worker) keepBest(id int32, s query.TableSet) *pareto.FlatArchive {
	e := w.e
	cost := e.weights.Cost
	if w.best == nil {
		w.best = make([]int32, e.enum.total)
	}
	lookup := func(t query.TableSet) splitView {
		id := e.memo.id(t)
		if id < 0 {
			return splitView{}
		}
		a := e.memo.archives[id]
		if a == nil || a.Len() == 0 {
			return splitView{}
		}
		if w.best[id] == 0 {
			w.best[id] = a.BestBy(cost) + 1
		}
		return splitView{arch: a, only: w.best[id] - 1}
	}
	t := newBestTracker()
	w.forEachCandidate(s, lookup, func(c *objective.Vector, ent plan.Entry) bool {
		t.offer(*c, ent, cost(*c))
		return !w.interrupted()
	})
	return t.archive(w, id)
}

// splitView is one side of a split during candidate enumeration: the flat
// archive of a table set, optionally narrowed to a single entry (keepBest's
// one-plan-per-subset view).
type splitView struct {
	arch *pareto.FlatArchive
	only int32 // -1 = all entries
}

// stored reports whether the view has at least one plan.
func (v splitView) stored() bool {
	return v.arch != nil && (v.only >= 0 || v.arch.Len() > 0)
}

// span returns the half-open range of archive positions the view covers.
// Positions are always those of the underlying archive, so entries built
// from them materialize against the memo regardless of the narrowing.
func (v splitView) span() (lo, hi int32) {
	if v.only >= 0 {
		return v.only, v.only + 1
	}
	return 0, int32(v.arch.Len())
}

// candidateFn receives one candidate of the enumeration: its cost vector
// and its compact encoding. The vector is the worker's scratch (worker.cost),
// valid until fn returns and overwritten by the next candidate; the entry is
// a small value. A candidate that the archive rejects costs no allocation
// and no copy of its costs.
type candidateFn func(cost *objective.Vector, ent plan.Entry) bool

// forEachCandidate constructs every candidate plan for table set s —
// all splits into two connected halves, all join operators and DOPs, all
// combinations of stored sub-plans — and yields each to fn as a (cost,
// entry) pair over the sub-plan view lookup (fullSet's never hashes). It
// returns false if fn aborted the enumeration.
//
// s is connected, so every such split is predicate-connected: the
// Postgres heuristic the paper kept (Cartesian products only when no
// predicate-connected split exists) never admits a product here. Only the
// chain fallback's prefixes can lack a predicate (forEachCandidateChain).
func (w *worker) forEachCandidate(s query.TableSet, lookup func(query.TableSet) splitView, fn candidateFn) bool {
	if w.e.enum.chainFallback {
		return w.forEachCandidateChain(s, lookup, fn)
	}
	return w.forEachCandidateAuto(s, lookup, fn)
}

// splitPair is one ordered csg-cmp split buffered by the traversal and
// edge-cut candidate loops before emission.
type splitPair struct {
	left, right query.TableSet
}

// forEachCandidateGraph is the traversal candidate loop — the fused
// form of query.EachConnectedSplit (keep the two in sync; see its
// comment): instead of scanning every 2-split of s, it enumerates the
// connected subsets of s minus its anchor relation
// (query.EachConnectedSubset) and keeps a split only when the anchored
// complement is stored — which, with only connected sets materialized,
// is the csg-cmp condition "both halves connected" as one slice lookup,
// no per-split BFS. s itself is connected, so every such split carries a
// crossing join edge.
//
// The surviving ordered pairs (each unordered split in both operand
// orders) are buffered in per-worker scratch and emitted in descending
// left-operand order — exactly the order in which TableSet.EachSubset
// visits them. All three loops of forEachCandidateAuto emit that one
// sequence, so which of them treats a set changes how fast its archive is
// built, never the archive (including approximately pruned ones, whose
// contents depend on insertion order); TestAutoEnumerationMatchesExhaustive
// holds each loop to it on every connected set.
func (w *worker) forEachCandidateGraph(s query.TableSet, lookup func(query.TableSet) splitView, fn candidateFn) bool {
	e := w.e
	anchorV := e.q.MaxDegreeVertex(s)
	anchor := query.Singleton(anchorV)
	u := s.Minus(anchor)
	nbr := e.q.Adjacent(anchorV).Intersect(s)
	w.pairs = w.pairs[:0]
	e.q.EachConnectedSubset(u, func(rest query.TableSet) bool {
		w.splits += 2
		if nbr.SubsetOf(rest) && rest != u {
			// DPhyp-style complement prune (see query.EachConnectedSplit):
			// rest swallowed the anchor's whole neighborhood without taking
			// everything, so the complement strands the anchor — it is
			// disconnected, and its memo lookup would come back unstored.
			return true
		}
		sub := s.Minus(rest)
		if !lookup(sub).stored() || !lookup(rest).stored() {
			// sub is disconnected (never enumerated, memo id -1) or a half
			// was skipped after a cancellation; nothing to combine.
			return true
		}
		w.pairs = append(w.pairs, splitPair{sub, rest}, splitPair{rest, sub})
		return true
	})
	return w.emitPairs(lookup, fn)
}

// emitPairs sorts the buffered ordered splits into the subset scan's
// canonical order (left operand descending) and feeds them to edgeSplit.
// Shared tail of the traversal and edge-cut candidate loops.
func (w *worker) emitPairs(lookup func(query.TableSet) splitView, fn candidateFn) bool {
	slices.SortFunc(w.pairs, func(a, b splitPair) int {
		return cmp.Compare(b.left, a.left) // EachSubset order: left descending
	})
	for _, p := range w.pairs {
		if !w.edgeSplit(lookup(p.left), lookup(p.right), p.left, p.right, fn) {
			return false
		}
	}
	return true
}

// autoScanMaxLen is the set size up to which the dispatch always takes
// the subset scan: below it, the 2^|s|-2 ordered subsets are fewer than
// the bookkeeping of a traversal.
const autoScanMaxLen = 5

// forEachCandidateAuto is the engine's candidate loop: per table set it
// inspects size and internal edge count and routes to the cheapest of
// three equivalent split enumerations —
//
//	|s| <= autoScanMaxLen        -> subset scan (forEachCandidateScan)
//	edges == |s|-1 (tree)        -> edge-cut enumeration (forEachCandidateTree)
//	density >= 1/2               -> subset scan
//	otherwise                    -> anchored csg-cmp traversal (forEachCandidateGraph)
//
// All three emit the identical ordered splits in the identical canonical
// order (each loop's comment argues its case), so the heuristic changes
// Stats.EnumSplits — the scanning work — and nothing else.
func (w *worker) forEachCandidateAuto(s query.TableSet, lookup func(query.TableSet) splitView, fn candidateFn) bool {
	k := s.Len()
	if k <= autoScanMaxLen {
		return w.forEachCandidateScan(s, lookup, fn)
	}
	edges := w.e.q.EdgeCount(s)
	switch {
	case edges == k-1:
		return w.forEachCandidateTree(s, lookup, fn)
	case 4*edges >= k*(k-1): // density 2E/(k(k-1)) >= 1/2
		return w.forEachCandidateScan(s, lookup, fn)
	default:
		return w.forEachCandidateGraph(s, lookup, fn)
	}
}

// forEachCandidateScan is the subset scan: every ordered 2-split of s in
// EachSubset order, kept when both halves are stored. Because only the
// connected sets are materialized, "both stored" is "both connected", and
// s itself being connected guarantees every surviving split carries a
// crossing join edge. Emission order is literally EachSubset order:
// canonical by construction, no buffering or sort.
//
// On dense sets this beats the traversal: nearly every subset is
// connected, so the traversal enumerates as many rests as the scan visits
// subsets but pays neighborhood expansion, pair buffering, and the
// canonical sort on top.
func (w *worker) forEachCandidateScan(s query.TableSet, lookup func(query.TableSet) splitView, fn candidateFn) bool {
	abort := false
	s.EachSubset(func(left, right query.TableSet) bool {
		w.splits++
		vl, vr := lookup(left), lookup(right)
		if !vl.stored() || !vr.stored() {
			return true
		}
		if !w.edgeSplit(vl, vr, left, right, fn) {
			abort = true
			return false
		}
		return true
	})
	return !abort
}

// forEachCandidateTree is the edge-cut candidate loop for tree-shaped
// table sets (edges == |s|-1): in a tree, a split with both halves
// connected has exactly one crossing edge — fewer is disconnected, two or
// more closes a cycle — so the valid splits are precisely the |s|-1 edge
// cuts. One DFS from the set's first relation records pre-order and
// parents; a reverse pre-order sweep accumulates each vertex's subtree;
// every non-root vertex then yields the cut (its subtree, the rest), both
// halves connected by construction. Total work O(|s|) against the
// traversal's O(|s|) enumerated rests per valid split — the strongest
// form of complement pruning: no enumerated candidate is ever discarded.
// The stored() checks remain only for halves skipped after a
// cancellation. Emission goes through the same canonical sort as the
// traversal, so candidate order is unchanged.
func (w *worker) forEachCandidateTree(s query.TableSet, lookup func(query.TableSet) splitView, fn candidateFn) bool {
	e := w.e
	root := int8(s.First())
	w.treeStack[0] = root
	sp, n := 1, 0
	visited := query.Singleton(int(root))
	for sp > 0 {
		sp--
		v := w.treeStack[sp]
		w.treeOrder[n] = v
		n++
		w.treeSub[v] = query.Singleton(int(v))
		for nb := e.q.Adjacent(int(v)).Intersect(s).Minus(visited); !nb.Empty(); {
			u := nb.First()
			nb = nb.Minus(query.Singleton(u))
			visited = visited.Add(u)
			w.treeParent[u] = v
			w.treeStack[sp] = int8(u)
			sp++
		}
	}
	for i := n - 1; i >= 1; i-- {
		v := w.treeOrder[i]
		w.treeSub[w.treeParent[v]] = w.treeSub[w.treeParent[v]].Union(w.treeSub[v])
	}
	w.pairs = w.pairs[:0]
	for i := 1; i < n; i++ {
		cut := w.treeSub[w.treeOrder[i]]
		rest := s.Minus(cut)
		w.splits += 2
		if !lookup(cut).stored() || !lookup(rest).stored() {
			continue
		}
		w.pairs = append(w.pairs, splitPair{cut, rest}, splitPair{rest, cut})
	}
	return w.emitPairs(lookup, fn)
}

// forEachCandidateChain is the candidate loop of the enumeration's chain
// fallback (the deadline expired while the search space was still being
// materialized): every non-singleton set is a left-deep prefix {r0..rk},
// and its only split peels the highest relation off — O(1) splits per set,
// which is what lets the degraded path finish promptly on the queries
// that trigger it. Predicate-connected splits get the full join-operator
// menu; a prefix with no edge to the peeled relation falls back to
// Cartesian nested loops (hash and sort-merge joins need an equi-join
// predicate), so a plan always exists. Both operand orders are emitted in
// the canonical descending-left order: peel holds the highest bit of s,
// so (peel, left) comes first.
func (w *worker) forEachCandidateChain(s query.TableSet, lookup func(query.TableSet) splitView, fn candidateFn) bool {
	peel := query.Singleton(s.Top())
	left := s.Minus(peel)
	vl, vr := lookup(left), lookup(peel)
	w.splits += 2
	if !vl.stored() || !vr.stored() {
		return true
	}
	if w.e.q.ConnectedTo(left, peel) {
		return w.edgeSplit(vr, vl, peel, left, fn) && w.edgeSplit(vl, vr, left, peel, fn)
	}
	pl, lp := w.e.m.PrepareSplit(peel, left), w.e.m.PrepareSplit(left, peel)
	return w.joinPairs(cartesianAlgs, &pl, vr, vl, peel, left, fn) && w.joinPairs(cartesianAlgs, &lp, vl, vr, left, peel, fn)
}

// edgeSplit enumerates the candidates of one predicate-connected split. Its
// estimates are read once (costmodel.PrepareSplit), and every operator's
// terms — index-NL's and each stored join's at each DOP — are built from
// them.
func (w *worker) edgeSplit(vl, vr splitView, left, right query.TableSet, fn candidateFn) bool {
	e := w.e
	split := e.m.PrepareSplit(left, right)
	// Index-nested-loop: inner side must be a single base relation with an
	// index on the join column; the inner lookup replaces a stored inner
	// plan, so it is generated once per outer plan.
	if right.Single() {
		if rel := right.First(); e.m.InnerIndexColumn(left, rel) != "" {
			terms := split.IndexNL()
			// One second hint for all of the split's index-NL candidates,
			// zeroed like joinPairs' (which runs after this loop).
			w.nears[0] = 0
			w.near = &w.nears[0]
			for li, hi := vl.span(); li < hi; li++ {
				w.considered++
				terms.ApplyTo(&w.cost, vl.arch.CostRow(li))
				if !fn(&w.cost, plan.IndexNLEntry(left, li, rel)) {
					return false
				}
			}
		}
	}
	return w.joinPairs(joinAlgs[:], &split, vl, vr, left, right, fn)
}

// joinPairs yields one candidate per (left plan, right plan, operator,
// DOP), in that nesting order. The operators' cost terms do not depend on
// the plans (the paper's Observation 2), so they are built once per split,
// from its prepared estimates, into the worker's scratch and only applied
// in the loop. The cost
// rows are read in place: both archives belong to lower levels, which fn
// cannot touch.
//
// When the candidates go to an archive (fullSet; w.fill), each is offered with
// a second hint (pareto.FlatArchive.InsertRowNear) keyed by what changes least
// between the candidates one row rejects: the inner sub-plan and the operator.
// In a fifth to three fifths of the rejecting scans the row found is the one
// that last rejected the same inner plan under the same operator, one outer
// plan earlier. The slots are a fixed table in the worker (nears); the ones
// this split can reach are zeroed first, so what a slot holds — and with it the
// archives' hint telemetry — is a function of the table set and not of which
// worker treated which split before. Inner plans past nearSlots/len(algs) share
// slots, harmlessly: a slot's row is tested before it is believed.
//
// An operator's DOP variants are first offered as one: the split's terms are
// folded per operator into their minimum (costmodel.MinTerms), whose cost over
// a sub-plan pair is a floor under all of the operator's variants, and if the
// archive's hinted row already dominates the floor (RejectsAll), or the slot's
// does (RejectsAllNear), it dominates each variant — InsertRowNear would have
// rejected every one on a hint test, which moves nothing but two counters, so
// the group is counted as considered and rejected and never costed. Anything
// else — both rows miss, a NaN, a group in which fn would have polled a context
// that has ended (pollFree) — takes the loop below, which is the whole of what
// the other modes run.
//
// In front of that pair floor stand three coarser ones, each over a contiguous
// run of the enumeration and tested where the loop reaches the run's first
// candidate (rejectsRun): the whole split, then each block of blockRows outer
// sub-plans against every inner one, then each outer sub-plan against a block
// of blockRows inner ones. A run's floor is the operators' folded terms
// applied to the column minima of its outer and of its inner sub-plans
// (columnMins), and ApplyTo is monotone in the child vectors too, so it is
// under every pair floor of the run. If the hinted row covers it, each pair of
// the run would have been rejected on that row as above (or, under a NaN pair
// floor, candidate by candidate on the hint test), which moves no hint: the
// run is counted as that many RejectsAll yeses and skipped. A run must be
// contiguous, because the hint it is tested on is the one the loop would meet
// at each of its candidates only if nothing between them is offered.
func (w *worker) joinPairs(algs []plan.JoinAlg, split *costmodel.Split, vl, vr splitView, left, right query.TableSet, fn candidateFn) bool {
	dops := w.e.opts.MaxDOP
	n := 0
	for _, alg := range algs {
		for dop := 1; dop <= dops; dop++ {
			w.terms[n] = split.Join(alg, dop)
			n++
		}
	}
	llo, lhi := vl.span()
	rlo, rhi := vr.span()
	nl, nr := int(lhi-llo), int(rhi-rlo)
	gated := w.fill != nil && dops > 1
	if gated {
		for g := range algs {
			w.floors[g] = costmodel.MinTerms(w.terms[g*dops : (g+1)*dops])
		}
	}
	clear(w.nears[:min(nr*len(algs), nearSlots)])
	// With one pair every run is that pair, and the block tiers are idle.
	if gated && nl*nr > 1 {
		columnMins(vl.arch, llo, lhi, &w.lmin)
		columnMins(vr.arch, rlo, rhi, &w.rmin)
		if w.rejectsRun(len(algs), &w.lmin[maxBlocks], &w.rmin[maxBlocks], nl*nr*n) {
			return true
		}
	}
	for lb := 0; lb < nl; lb += blockRows {
		lrows := min(blockRows, nl-lb)
		// With one outer block the block is the whole split.
		if gated && nl > blockRows && lb/blockRows < maxBlocks &&
			w.rejectsRun(len(algs), &w.lmin[lb/blockRows], &w.rmin[maxBlocks], lrows*nr*n) {
			continue
		}
		for li := llo + int32(lb); li < llo+int32(lb+lrows); li++ {
			cl := vl.arch.CostRow(li)
			for rb := 0; rb < nr; rb += blockRows {
				rrows := min(blockRows, nr-rb)
				// A one-row block is a pair; one outer row against the one
				// inner block is the run the outer block was just tested as.
				if gated && rrows > 1 && rb/blockRows < maxBlocks && !(lrows == 1 && rrows == nr) &&
					w.rejectsRun(len(algs), cl, &w.rmin[rb/blockRows], rrows*n) {
					continue
				}
				for ri := rlo + int32(rb); ri < rlo+int32(rb+rrows); ri++ {
					cr := vr.arch.CostRow(ri)
					for g := range algs {
						near := &w.nears[(int(ri-rlo)*len(algs)+g)&(nearSlots-1)]
						if gated && w.pollFree(dops) {
							w.floors[g].ApplyTo(&w.cost, cl, cr)
							if w.fill.RejectsAll(&w.cost, dops) || w.fill.RejectsAllNear(&w.cost, dops, near) {
								w.considered += dops
								w.floorRejected += dops
								w.checkTick += dops
								continue
							}
						}
						w.near = near
						for k := g * dops; k < (g+1)*dops; k++ {
							t := &w.terms[k]
							w.considered++
							t.ApplyTo(&w.cost, cl, cr)
							if !fn(&w.cost, plan.JoinEntry(t.Alg, t.DOP, left, li, right, ri)) {
								return false
							}
						}
					}
				}
			}
		}
	}
	return true
}

// blockRows is the size of a block in joinPairs' block tiers, in sub-plans of
// one side of a split; maxBlocks is how many blocks of a side keep their own
// column minima — the blocks past it, on a side of more than
// maxBlocks*blockRows sub-plans, go without a block test.
const (
	blockRows = 8
	maxBlocks = 128
)

// columnMins folds the cost rows [lo, hi) of a, at least one, into column
// minima: out[b] over the b-th block of blockRows rows for the first maxBlocks
// blocks, out[maxBlocks] over all of the rows. Go's min propagates a NaN, so a
// column with a NaN anywhere has a NaN minimum, which no floor test accepts.
func columnMins(a *pareto.FlatArchive, lo, hi int32, out *[maxBlocks + 1]objective.Vector) {
	all := &out[maxBlocks]
	*all = *a.CostRow(lo)
	for b, at := 0, lo; at < hi; b, at = b+1, at+blockRows {
		end := min(at+blockRows, hi)
		if b >= maxBlocks {
			for i := at; i < end; i++ {
				minInto(all, a.CostRow(i))
			}
			continue
		}
		m := &out[b]
		*m = *a.CostRow(at)
		for i := at + 1; i < end; i++ {
			minInto(m, a.CostRow(i))
		}
		minInto(all, m)
	}
}

func minInto(m, r *objective.Vector) {
	for o := range m {
		m[o] = min(m[o], r[o])
	}
}

// rejectsRun is joinPairs' block test: the next n candidates join, under one
// of the split's groups operators, an outer sub-plan no cheaper than cl on any
// objective with an inner one no cheaper than cr. If fn would answer "go on"
// to each of them (pollFree: no stop latched, and a poll among them would find
// the context running, so a far deadline skips runs as no deadline does) and
// the archive's hinted row covers every operator's floor over (cl, cr), they
// are counted as n RejectsAll yeses — considered, rejected without a scan,
// floorRejected and blockRejected, n ticks — and rejectsRun reports true;
// otherwise it has changed nothing.
func (w *worker) rejectsRun(groups int, cl, cr *objective.Vector, n int) bool {
	if !w.pollFree(n) {
		return false
	}
	last := groups - 1
	for g := range last {
		w.floors[g].ApplyTo(&w.cost, cl, cr)
		if !w.fill.HintCovers(&w.cost) {
			return false
		}
	}
	w.floors[last].ApplyTo(&w.cost, cl, cr)
	if !w.fill.RejectsAll(&w.cost, n) {
		return false
	}
	w.considered += n
	w.floorRejected += n
	w.blockRejected += n
	w.checkTick += n
	return true
}

// stats summarizes the run, folding the worker-private counters together.
func (e *engine) stats(start time.Time) Stats {
	stored := 0
	for _, a := range e.memo.archives {
		if a != nil {
			stored += a.Len()
		}
	}
	considered := 0
	splits := 0
	sharedHits := 0
	maxDoneID := int32(-1)
	paretoLast := 0
	for i := range e.workers {
		w := &e.workers[i]
		considered += w.considered
		splits += w.splits
		sharedHits += w.sharedHits
		if w.maxDoneID > maxDoneID {
			maxDoneID = w.maxDoneID
			paretoLast = w.maxDoneLen
		}
	}
	return Stats{
		Duration:       time.Since(start),
		Considered:     considered,
		Stored:         stored,
		MemoryBytes:    int64(stored) * storedPlanBytes,
		ParetoLast:     paretoLast,
		EnumSets:       e.enum.scanned,
		EnumSplits:     splits,
		SharedMemoHits: sharedHits,
		TimedOut:       e.timedOut.Load(),
		Iterations:     1,
	}
}

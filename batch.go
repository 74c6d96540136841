package moqo

import (
	"context"
	"slices"
	"sync"

	"moqo/internal/batchplan"
	"moqo/internal/core"
)

// SharedMemo is a batch-scoped store of solved optimizer subproblems —
// the cross-query common-subexpression layer behind OptimizeBatch.
// Requests over the same catalog whose queries join overlapping table
// sets solve overlapping subproblems; a shared memo lets each request
// publish the Pareto archives of the table sets it completed and serve
// later requests' identical subproblems from them, bit-for-bit (the
// archive keys encode everything a subproblem's answer depends on — see
// internal/core.SharedMemo for the soundness argument).
//
// A SharedMemo is safe for concurrent use and grows monotonically; scope
// it to one batch (or one catalog generation) and drop it as a whole.
type SharedMemo struct {
	m *core.SharedMemo
}

// NewSharedMemo creates an empty shared memo.
func NewSharedMemo() *SharedMemo { return &SharedMemo{m: core.NewSharedMemo()} }

// core is the engine's memo behind s (nil for a nil s).
func (s *SharedMemo) core() *core.SharedMemo {
	if s == nil {
		return nil
	}
	return s.m
}

// Subproblems returns the number of solved subproblems published so far.
func (s *SharedMemo) Subproblems() int { return s.m.Len() }

// Counters reports cumulative subproblem lookup hits, misses, and
// publishes across every request the memo was attached to.
func (s *SharedMemo) Counters() (hits, misses, published int64) { return s.m.Counters() }

// BatchOptions configures OptimizeBatchContext.
type BatchOptions struct {
	// Parallel is the number of members optimized concurrently (default
	// 1), the caller's goroutine included. Any value is safe, whichever
	// members share a *Query object: a built Query is only read.
	Parallel int

	// Shared is the memo the batch publishes solved subproblems to. Nil
	// creates a fresh one for this batch; pass your own to share across
	// batches over the same catalog, or to read its Counters afterwards.
	Shared *SharedMemo
}

// BatchItem is the outcome of one batch member.
type BatchItem struct {
	// Result is the member's optimization result, nil on error. Members
	// whose requests resolve to the same cache key and whose queries name
	// their relations alike (equal aliases and join edges, position by
	// position) share one *Result — treat it as read-only, as with any
	// cached result. A member that differs only in its aliases gets its
	// own, in its own names.
	Result *Result
	// Err is the member's error (validation, cancellation); nil on
	// success. Member errors are independent — one invalid member never
	// fails the batch.
	Err error
	// Reused reports the member was answered without running its own
	// dynamic program: either an exact duplicate (cache key and rendering)
	// of another member, or a re-weight/re-bound or renaming of one,
	// answered from that member's Pareto frontier.
	Reused bool
}

// OptimizeBatch optimizes a workload of requests as one batch, exploiting
// everything its members have in common. Compared to a loop over
// Optimize:
//
//   - members resolving to the same cache key whose queries render alike
//     run one dynamic program (the duplicates share the leader's Result),
//   - members differing only in weights, bounds or relation aliases (same
//     FrontierKey, EXA/RTA) run one dynamic program; the others are
//     answered from its Pareto frontier by a SelectBest scan,
//   - all members publish solved subproblems to a shared memo, so
//     overlapping-but-distinct queries (a star sharing its core with a
//     larger star, a chain extending another) skip each other's completed
//     table sets, and
//   - distinct dynamic programs are scheduled most-expensive-first
//     (core.PredictCost), which bounds the makespan of the parallel
//     fan-out and lets cheap members find subproblems pre-published — the
//     ticket-major schedule of internal/batchplan, the same one moqod's
//     POST /optimize/batch serves its members under. Here each frontier
//     group is its own lane, so every group is a leader (ticket 0) and the
//     order is plain cost order; moqod's lanes hold several members, and
//     it claims every lane's leader before any lane's follower, trading
//     some pre-published subproblems (more enumeration work) for leaders
//     that run side by side.
//
// Every member's result is bit-for-bit the result a standalone
// Optimize(req) call would return — plans, cost vectors, frontiers; only
// the effort statistics (Stats.Considered, Stats.SharedMemoHits, ...)
// reflect the sharing. The returned slice has one item per request, in
// request order.
func OptimizeBatch(reqs []Request) []BatchItem {
	return OptimizeBatchContext(context.Background(), reqs, BatchOptions{})
}

// OptimizeBatchContext is OptimizeBatch under a context and explicit
// options. Cancelling the context aborts running members and fails the
// not-yet-started ones with the context's error.
func OptimizeBatchContext(ctx context.Context, reqs []Request, opts BatchOptions) []BatchItem {
	items := make([]BatchItem, len(reqs))
	runBatch(ctx, reqs, opts, func(i int, item BatchItem) { items[i] = item }) // one write per index
	return items
}

// OptimizeBatchStream is OptimizeBatchContext emitting each member's item
// as it completes instead of collecting them: emit(i, item) is called
// exactly once per member, in completion order (not request order), and
// never concurrently. It returns after every member was emitted.
func OptimizeBatchStream(ctx context.Context, reqs []Request, opts BatchOptions, emit func(i int, item BatchItem)) {
	var mu sync.Mutex
	runBatch(ctx, reqs, opts, func(i int, item BatchItem) {
		mu.Lock()
		emit(i, item)
		mu.Unlock()
	})
}

// batchUnit is one distinct answer of the batch: the representative
// request that runs (or is re-weighted), and the indexes of every member
// resolving to its cache key with a query that renders like its own.
type batchUnit struct {
	r       Resolved
	members []int
}

// batchGroup is one scheduling unit: a set of batchUnits sharing a
// FrontierKey whose first unit runs the dynamic program and whose rest
// are answered from its frontier snapshot. Units that cannot share a
// frontier (IRA refinement is seeded, not bit-for-bit; the scalar
// baselines have no frontier) form singleton groups — for IRA the shared
// memo still carries the cross-member reuse.
type batchGroup []*batchUnit

// runBatch is the shared body of the collecting and streaming entry
// points. done is called exactly once per member index — concurrently for
// different indexes, and never after runBatch returns.
func runBatch(ctx context.Context, reqs []Request, opts BatchOptions, done func(int, BatchItem)) {
	shared := opts.Shared
	if shared == nil {
		shared = NewSharedMemo()
	}

	// Resolve members into units of one answer, and units into frontier
	// groups: units sharing a FrontierKey differ only in weights, bounds
	// and relation aliases, so one dynamic program serves the whole group.
	// Invalid members fail immediately and independently.
	byCK := make(map[string][]*batchUnit) // CacheKey -> its units, one per rendering
	byFK := make(map[string]int)          // FrontierKey -> index into groups
	var groups []batchGroup
	for i, req := range reqs {
		req.Shared = shared
		r, err := req.Resolve()
		if err != nil {
			done(i, BatchItem{Err: err})
			continue
		}
		// A duplicate shares its unit's Result, plan JSON included, and
		// CacheKey leaves out what the rendering reads of the query besides
		// it: the relation aliases and the order the edges were declared in.
		ck := r.CacheKey()
		same := func(u *batchUnit) bool { return core.SameRendering(u.r.req.Query, r.req.Query) }
		if k := slices.IndexFunc(byCK[ck], same); k >= 0 {
			u := byCK[ck][k]
			u.members = append(u.members, i)
			continue
		}
		u := &batchUnit{r: r, members: []int{i}}
		byCK[ck] = append(byCK[ck], u)
		if r.alg != AlgoEXA && r.alg != AlgoRTA {
			groups = append(groups, batchGroup{u})
			continue
		}
		// Only EXA and RTA answer re-weights bit-for-bit from a frontier
		// snapshot (see Resolved.Reoptimize); IRA's seeded path refines and
		// may return a finer frontier than a cold run.
		fk := r.FrontierKey()
		if g, exists := byFK[fk]; exists {
			groups[g] = append(groups[g], u)
			continue
		}
		byFK[fk] = len(groups)
		groups = append(groups, batchGroup{u})
	}

	// A group is its own lane: nothing two groups share is written by a
	// run (a built Query is immutable, each run fills its own cost model's
	// estimate table, the shared memo locks), so the schedule only orders
	// them — every group holds ticket 0, so ticket-major order is plain
	// most-expensive-first.
	plan := batchplan.New(len(groups),
		func(i int) float64 { return groups[i][0].r.PredictedCost() },
		func(i int) int { return i })
	plan.Run(opts.Parallel, func(i int) { runGroup(ctx, groups[i], done) })
}

// runGroup executes one scheduling unit: the leader's dynamic program,
// then the group's other units — re-weights, re-bounds, renamings — from
// the leader's frontier snapshot.
func runGroup(ctx context.Context, g batchGroup, done func(int, BatchItem)) {
	leader := g[0]
	var res *Result
	var snap *FrontierSnapshot
	var err error
	if len(g) > 1 {
		res, snap, err = leader.r.OptimizeSnapshot(ctx)
	} else {
		res, err = leader.r.Optimize(ctx)
	}
	emitUnit(leader, res, err, false, done)

	for _, u := range g[1:] {
		if err == nil && snap != nil {
			// A pure SelectBest scan over the snapshot — no dynamic program,
			// bit-for-bit the cold answer at the unit's weights/bounds, in
			// its own relation names.
			r, _, e := u.r.Reoptimize(ctx, snap)
			emitUnit(u, r, e, true, done)
			continue
		}
		// Leader failed or produced no reusable frontier (degraded run):
		// fall back to the unit's own cold optimization.
		r, e := u.r.Optimize(ctx)
		emitUnit(u, r, e, false, done)
	}
}

// emitUnit fans one unit's outcome out to all its members: the first
// member owns the run, the rest are duplicates sharing its Result.
func emitUnit(u *batchUnit, res *Result, err error, reused bool, done func(int, BatchItem)) {
	for k, i := range u.members {
		done(i, BatchItem{Result: res, Err: err, Reused: reused || k > 0})
	}
}

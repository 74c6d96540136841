package proptest

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"moqo"
	"moqo/internal/catalog"
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/workload"
)

// seeds is how many instances tier-1 draws.
const seeds = 20

// TestGuaranteesOnRandomInstances holds the engine to the paper's
// statements (guarantees), computed from their definitions on every seed's
// instance. A failure names the seed; generate(seed) rebuilds its instance.
//
// The first statement needs the principle of optimality over the active
// objectives, which the cost model breaks when startup time is active and
// total time is not: the hash and sort-merge joins' startup reads their
// children's total time, which the archives then do not compare, so EXA
// can prune a sub-plan an exact plan is built on. Seed 21 is the first
// instance of that kind, and EXA misses part of its Pareto set there
// (ROADMAP 2(a)); seeds 1–20 draw none.
func TestGuaranteesOnRandomInstances(t *testing.T) {
	for seed := int64(1); seed <= seeds; seed++ {
		in := generate(seed)
		if got, want := guarantees(t, in); !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("%v: EXA's frontier (%d rows) is not the exact Pareto set (%d rows):\n got %v\nwant %v",
				in, len(got), len(want), got, want)
		}
	}
}

// tpchQueries is how many TPC-H queries join two to four relations, and
// tpchInstances how many instances TestGuaranteesOnTPCH draws over them,
// each from its own seed, the first being tpchSeed.
const (
	tpchQueries   = 13
	tpchInstances = 40
	tpchSeed      = 1001
)

// TestGuaranteesOnTPCH holds the engine to the statements of
// TestGuaranteesOnRandomInstances on TPC-H's join graphs and statistics:
// every query of two to four relations at scale factor 1, in turn, under
// objectives, weights and α drawn as generate draws them (tpchInstance).
//
// On an instance with the known P0's objective shape (breaksOptimality)
// EXA's statement does not hold; there the test counts and logs the
// instances on which EXA lost Pareto rows, and still asserts RTA's and
// IRA's statements. Anywhere else a difference is an error.
func TestGuaranteesOnTPCH(t *testing.T) {
	cat := catalog.TPCH(1)
	var queries []*query.Query
	for n := 1; n <= 22; n++ {
		if q := workload.MustQuery(n, cat); q.NumRelations() >= 2 && q.NumRelations() <= 4 {
			queries = append(queries, q)
		}
	}
	if len(queries) != tpchQueries {
		t.Fatalf("%d TPC-H queries join two to four relations, want %d", len(queries), tpchQueries)
	}
	ran, shaped, lossy := 0, 0, 0
	for i := range tpchInstances {
		in := tpchInstance(tpchSeed+int64(i), queries[i%len(queries)])
		got, want := guarantees(t, in)
		ran++
		switch {
		case in.breaksOptimality():
			shaped++
			lost := 0
			for _, row := range want {
				if !slices.ContainsFunc(got, func(g []uint64) bool { return slices.Equal(g, row) }) {
					lost++
				}
			}
			if lost > 0 {
				lossy++
				t.Logf("%v: EXA lost %d of the %d Pareto rows (the known P0, ROADMAP 2(a))", in, lost, len(want))
			}
		case !slices.EqualFunc(got, want, slices.Equal):
			t.Errorf("%v: EXA's frontier (%d rows) is not the exact Pareto set (%d rows):\n got %v\nwant %v",
				in, len(got), len(want), got, want)
		}
	}
	if ran != tpchInstances {
		t.Errorf("checked %d instances, want %d", ran, tpchInstances)
	}
	t.Logf("%d instances over %d queries: %d with the P0's objective shape, %d of them lost Pareto rows", ran, len(queries), shaped, lossy)
}

// guarantees checks RTA's and IRA's statements on in and returns, for the
// caller to compare, EXA's frontier and the exact Pareto set of the plan
// space, both projected on the active objectives:
//
//   - EXA's frontier is the exact Pareto set of the plan space, bit for
//     bit on the active objectives (Algorithm 1 at precision 1);
//   - RTA's plan costs at most α times the weighted optimum of the plan
//     space (Theorem 3);
//   - under bounds B (drawBounds), IRA's plan respects B and costs at most
//     α times the optimum over the plans that respect B, if any plan does;
//     if none does, it costs at most α times the optimum of the plan space
//     (Theorem 6).
func guarantees(t *testing.T, in instance) (exa, exact [][]uint64) {
	t.Helper()
	filter := newParetoFilter(in.objectives)
	minCost, plans := math.Inf(1), 0
	var lo objective.Vector
	for o := range lo {
		lo[o] = math.Inf(1)
	}
	exhaustive(costmodel.NewDefault(in.query), in.maxDOP, in.sampling, func(v *objective.Vector) {
		plans++
		filter.add(v)
		minCost = min(minCost, in.weights.Cost(*v))
		for o := range lo {
			lo[o] = min(lo[o], v[o])
		}
	})
	opts := core.Options{Objectives: in.objectives, Alpha: in.alpha, MaxDOP: in.maxDOP, AllowSampling: &in.sampling}

	res, err := core.EXA(costmodel.NewDefault(in.query), in.weights, objective.NoBounds(), opts)
	if err != nil {
		t.Fatalf("%v: EXA: %v", in, err)
	}
	exa, exact = project(res.Frontier.Frontier(), in.objectives), project(filter.rows(), in.objectives)

	rta, err := core.RTA(costmodel.NewDefault(in.query), in.weights, opts)
	if err != nil {
		t.Fatalf("%v: RTA: %v", in, err)
	}
	if c := in.weights.Cost(rta.Best.Cost); c > in.alpha*minCost {
		t.Errorf("%v: RTA's plan costs %v, more than alpha × the optimum %v = %v", in, c, minCost, in.alpha*minCost)
	}

	// Every plan that respects B is weakly dominated on the active
	// objectives by a Pareto-optimal one, which then respects B too and
	// costs no more: the optimum over the plans that respect B is the
	// optimum over the Pareto set's rows that do.
	b := drawBounds(in.seed, in.objectives, lo)
	minFeasible := math.Inf(1)
	for _, v := range filter.rows() {
		if b.Respects(v, in.objectives) {
			minFeasible = min(minFeasible, in.weights.Cost(v))
		}
	}
	ira, err := core.IRA(costmodel.NewDefault(in.query), in.weights, b, opts)
	if err != nil {
		t.Fatalf("%v: IRA: %v", in, err)
	}
	c := in.weights.Cost(ira.Best.Cost)
	feasible := !math.IsInf(minFeasible, 1)
	switch {
	case feasible && !b.Respects(ira.Best.Cost, in.objectives):
		t.Errorf("%v, bounds %v: IRA's plan %v violates the bounds, which a plan respects", in, b, ira.Best.Cost)
	case feasible && c > in.alpha*minFeasible:
		t.Errorf("%v, bounds %v: IRA's plan costs %v, more than alpha × the bounded optimum %v = %v", in, b, c, minFeasible, in.alpha*minFeasible)
	case !feasible && c > in.alpha*minCost:
		t.Errorf("%v, bounds %v: no plan respects them, and IRA's plan costs %v, more than alpha × the optimum %v = %v", in, b, c, minCost, in.alpha*minCost)
	}
	t.Logf("%v: %d plans, Pareto set %d, RTA frontier %d, bounds respected by some plan: %v", in, plans, len(exact), rta.Frontier.Len(), feasible)
	return exa, exact
}

// coveredPairs is how many (seed, table set) pairs TestRTACoversEverySubInstance
// checks: every connected set of at least two tables of every tier-1 seed's
// instance, the whole query included.
const coveredPairs = 140

// TestRTACoversEverySubInstance holds RTA to Theorem 3 per table subset. The
// theorem states, by induction over the table sets, that RTA's archive for
// a set S is an αᵢ^|S|-approximate Pareto set of S's plans, with
// αᵢ = αU^(1/|Q|); at S = Q that is the αU of the user. For every tier-1
// seed and every connected set S of at least two tables, the induced
// sub-instance (the relations of S and the joins among them) is optimized
// by RTA at precision αᵢ^|S| — its internal precision is then αᵢ again, so
// its frontier is the archive the whole run keeps for S — and its frontier
// must α-cover the exact Pareto set of S's plans on the active objectives:
// every Pareto-optimal plan has a frontier row at most αᵢ^|S| times its
// cost on each of them. A break of the principle of near-optimality on a
// sub-join surfaces here even where the whole query's frontier still
// covers. The check has no tolerance: a factor over αᵢ^|S| by one ulp of
// that power's rounding fails.
func TestRTACoversEverySubInstance(t *testing.T) {
	pairs := 0
	for seed := int64(1); seed <= seeds; seed++ {
		in := generate(seed)
		all := in.query.AllTables()
		alphaI := math.Pow(in.alpha, 1/float64(all.Len()))
		for s := query.TableSet(3); s <= all; s++ {
			if s.Single() || !in.query.Connected(s) {
				continue
			}
			pairs++
			bound := in.alpha
			if s != all {
				bound = math.Pow(alphaI, float64(s.Len()))
			}
			sub := induced(in.query, s)
			exact := newParetoFilter(in.objectives)
			exhaustive(costmodel.NewDefault(sub), in.maxDOP, in.sampling, exact.add)
			opts := core.Options{Objectives: in.objectives, Alpha: bound, MaxDOP: in.maxDOP, AllowSampling: &in.sampling}
			rta, err := core.RTA(costmodel.NewDefault(sub), in.weights, opts)
			if err != nil {
				t.Fatalf("%v: tables %v: RTA: %v", in, s, err)
			}
			if f := coverFactor(rta.Frontier.Frontier(), exact.rows(), in.objectives); f > bound {
				t.Errorf("%v: tables %v: RTA's frontier (%d rows) covers the Pareto set (%d rows) only at %v, over αᵢ^%d = %v",
					in, s, rta.Frontier.Len(), len(exact.rows()), f, s.Len(), bound)
			}
		}
	}
	if pairs != coveredPairs {
		t.Errorf("checked %d (seed, table set) pairs, want %d", pairs, coveredPairs)
	}
}

// project returns the vectors' values on objs as bit patterns, sorted, so
// two sets compare with slices.Equal.
func project(vs []objective.Vector, objs objective.Set) [][]uint64 {
	ids := objs.IDs()
	out := make([][]uint64, len(vs))
	for i, v := range vs {
		out[i] = make([]uint64, len(ids))
		for k, o := range ids {
			out[i][k] = math.Float64bits(v[o])
		}
	}
	slices.SortFunc(out, func(a, b []uint64) int {
		for k := range a {
			if c := cmp.Compare(math.Float64frombits(a[k]), math.Float64frombits(b[k])); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

// TestParetoFilterMatchesFilterPareto: the streaming filter keeps the set
// the quadratic pareto.FilterPareto returns, on random vectors drawn from
// a small grid so that ties and duplicates are common.
func TestParetoFilterMatchesFilterPareto(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		objs := objective.NewSet(objective.TotalTime, objective.Energy)
		if trial%2 == 1 {
			objs = objs.Add(objective.BufferFootprint).Add(objective.TupleLoss)
		}
		vs := make([]objective.Vector, 1+r.Intn(300))
		f := newParetoFilter(objs)
		for i := range vs {
			for o := range vs[i] {
				vs[i][o] = float64(r.Intn(8))
			}
			f.add(&vs[i])
		}
		got, want := project(f.rows(), objs), project(pareto.FilterPareto(vs, objs), objs)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("trial %d: filter kept %v, FilterPareto %v", trial, got, want)
		}
	}
}

// degradedSeeds is how many of the tier-1 seeds degrade under an expired
// deadline. The deadline is polled every 1024 candidate plans, so a run
// whose plan space is smaller finishes whole; the count keeps the
// statement below from passing on no degraded run at all.
const degradedSeeds = 4

// TestDegradedRuns holds a run cut short by its deadline to §5.1's
// statement: EXA, RTA and IRA under an already-expired deadline, on every
// tier-1 seed's instance. A run that reports Stats.TimedOut still returns a
// plan for the whole query that passes Plan.Validate, and carries no
// frontier snapshot — neither the engine's Result.Snapshot nor the
// library's OptimizeSnapshot — so no degraded frontier can reach a cache or
// the store.
//
// The shared memo it was attached to holds no degraded bit either: what it
// published are the sets it treated in full before the deadline was
// observed (see core.SharedMemo), so a full run borrowing them answers bit
// for bit like a full run on an empty memo, with the same stored plans.
func TestDegradedRuns(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	degraded := 0
	for seed := int64(1); seed <= seeds; seed++ {
		in := generate(seed)
		drawn := drawBounds(seed, in.objectives, objective.Vector{})
		seedDegraded := false
		for _, alg := range []moqo.Algorithm{moqo.AlgoEXA, moqo.AlgoRTA, moqo.AlgoIRA} {
			b := objective.NoBounds()
			if alg == moqo.AlgoIRA {
				b = drawn
			}
			shared := core.NewSharedMemo()
			res := runEngine(t, expired, in, alg, b, shared)
			if res.Stats.TimedOut {
				seedDegraded = true
				checkDegradedPlan(t, in, alg, res.Best, res.Snapshot != nil)
				if shared.Len() > 0 {
					borrowed := runEngine(t, context.Background(), in, alg, b, shared)
					fresh := runEngine(t, context.Background(), in, alg, b, nil)
					if !sameAnswer(borrowed, fresh, in.objectives) || borrowed.Stats.SharedMemoHits == 0 {
						t.Errorf("%v: %v: a full run on the %d archives a degraded run published answers differently "+
							"(%d hits, %d stored, best %v) than on an empty memo (%d stored, best %v)",
							in, alg, shared.Len(), borrowed.Stats.SharedMemoHits, borrowed.Stats.Stored, borrowed.Best.Cost,
							fresh.Stats.Stored, fresh.Best.Cost)
					}
				}
			}

			req := moqo.Request{Query: in.query, Algorithm: alg, Alpha: in.alpha, Objectives: in.objectives.IDs(),
				MaxDOP: in.maxDOP, AllowSampling: &in.sampling,
				Weights: map[moqo.Objective]float64{}, Bounds: map[moqo.Objective]float64{}}
			for _, o := range req.Objectives {
				req.Weights[o] = in.weights[o]
				if !math.IsInf(b[o], 1) {
					req.Bounds[o] = b[o]
				}
			}
			r, err := req.Resolve()
			if err != nil {
				t.Fatalf("%v: %v: %v", in, alg, err)
			}
			out, snap, err := r.OptimizeSnapshot(expired)
			if err != nil {
				t.Fatalf("%v: %v: OptimizeSnapshot: %v", in, alg, err)
			}
			if out.Stats.TimedOut {
				seedDegraded = true
				checkDegradedPlan(t, in, alg, out.Plan, snap != nil)
			}
		}
		if seedDegraded {
			degraded++
		}
	}
	if degraded != degradedSeeds {
		t.Errorf("%d of %d seeds degrade under an expired deadline, want %d", degraded, seeds, degradedSeeds)
	}
}

// runEngine runs alg on the instance under ctx with shared attached.
func runEngine(t *testing.T, ctx context.Context, in instance, alg moqo.Algorithm, b objective.Bounds, shared *core.SharedMemo) core.Result {
	t.Helper()
	opts := core.Options{Objectives: in.objectives, Alpha: in.alpha, MaxDOP: in.maxDOP, AllowSampling: &in.sampling, Shared: shared}
	m := costmodel.NewDefault(in.query)
	var res core.Result
	var err error
	switch alg {
	case moqo.AlgoEXA:
		res, err = core.EXAContext(ctx, m, in.weights, b, opts)
	case moqo.AlgoRTA:
		res, err = core.RTAContext(ctx, m, in.weights, opts)
	case moqo.AlgoIRA:
		res, err = core.IRAContext(ctx, m, in.weights, b, opts)
	}
	if err != nil {
		t.Fatalf("%v: %v: %v", in, alg, err)
	}
	return res
}

// sameAnswer reports whether two full runs agree bit for bit on the
// selected plan's cost, the frontier and the number of stored plans.
func sameAnswer(a, b core.Result, objs objective.Set) bool {
	return a.Best.Cost == b.Best.Cost && a.Stats.Stored == b.Stats.Stored &&
		slices.EqualFunc(project(a.Frontier.Frontier(), objs), project(b.Frontier.Frontier(), objs), slices.Equal)
}

// checkDegradedPlan reports a timed-out run's plan unless it is a valid
// plan for the whole query, and a snapshot the run returned.
func checkDegradedPlan(t *testing.T, in instance, alg moqo.Algorithm, best *plan.Node, snapshot bool) {
	t.Helper()
	switch {
	case best == nil:
		t.Errorf("%v: degraded %v returned no plan", in, alg)
	case best.Tables != in.query.AllTables():
		t.Errorf("%v: degraded %v's plan joins %v, not the whole query", in, alg, best.Tables)
	default:
		if err := best.Validate(in.query); err != nil {
			t.Errorf("%v: degraded %v's plan: %v", in, alg, err)
		}
	}
	if snapshot {
		t.Errorf("%v: degraded %v returned a frontier snapshot", in, alg)
	}
}

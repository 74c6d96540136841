package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/query"
)

// chainQuery builds a customer–orders–lineitem chain (TPC-H Q3 shape).
func chainQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(0.01) // small scale keeps the oracle fast
	q := query.New("chain3", cat)
	c := q.AddRelation(catalog.Customer, "c", 0.2)
	o := q.AddRelation(catalog.Orders, "o", 0.5)
	l := q.AddRelation(catalog.Lineitem, "l", 0.6)
	q.AddFKJoin(o, "o_custkey", c, "c_custkey")
	q.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	return q
}

// starQuery builds a 4-relation star around orders.
func starQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(0.01)
	q := query.New("star4", cat)
	c := q.AddRelation(catalog.Customer, "c", 0.3)
	o := q.AddRelation(catalog.Orders, "o", 0.4)
	l := q.AddRelation(catalog.Lineitem, "l", 0.5)
	n := q.AddRelation(catalog.Nation, "n", 1)
	q.AddFKJoin(o, "o_custkey", c, "c_custkey")
	q.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	q.AddFKJoin(c, "c_nationkey", n, "n_nationkey")
	return q
}

var threeObjs = objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.TupleLoss)

// smallOpts keeps oracle comparisons tractable.
func smallOpts(objs objective.Set) Options {
	return Options{Objectives: objs, MaxDOP: 2}
}

func randomWeights(r *rand.Rand, objs objective.Set) objective.Weights {
	var w objective.Weights
	for _, o := range objs.IDs() {
		w[o] = r.Float64()
	}
	return w
}

func TestEXAMatchesOracle(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	oracle := allPlans(m, mustNormalize(t, opts), q.AllTables())
	if len(oracle) == 0 {
		t.Fatal("oracle found no plans")
	}
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		w := randomWeights(r, threeObjs)
		res, err := EXA(m, w, objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for _, p := range oracle {
			best = math.Min(best, w.Cost(p.Cost))
		}
		got := w.Cost(res.Best.Cost)
		if math.Abs(got-best) > 1e-9*math.Max(1, best) {
			t.Fatalf("trial %d: EXA weighted cost %v, oracle optimum %v", trial, got, best)
		}
	}
}

func TestEXAFrontierIsParetoSetOfOracle(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	res, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := allPlans(m, mustNormalize(t, opts), q.AllTables())
	frontier := res.Frontier.Frontier()
	// (a) Every oracle plan is dominated by some frontier vector, so the
	// frontier covers the whole plan space; (b) no oracle plan strictly
	// dominates a frontier vector, so every frontier vector is Pareto-
	// optimal. Together these make the frontier exactly a Pareto set of
	// the oracle's plan space (checked linearly; a full FilterPareto over
	// the oracle would be quadratic in ~50k plans).
	for _, p := range oracle {
		covered := false
		for _, f := range frontier {
			if f.Dominates(p.Cost, threeObjs) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("oracle plan %v not dominated by any frontier vector", p.Cost.FormatOn(threeObjs))
		}
		for _, f := range frontier {
			if p.Cost.StrictlyDominates(f, threeObjs) {
				t.Fatalf("frontier vector %v is dominated by oracle plan %v",
					f.FormatOn(threeObjs), p.Cost.FormatOn(threeObjs))
			}
		}
	}
}

func TestRTAGuarantee(t *testing.T) {
	// Corollary 1: RTA's weighted cost is within factor alphaU of optimal.
	for _, q := range []*query.Query{chainQuery(t), starQuery(t)} {
		m := costmodel.NewDefault(q)
		opts := smallOpts(threeObjs)
		r := rand.New(rand.NewSource(33))
		for _, alpha := range []float64{1.05, 1.15, 1.5, 2, 4} {
			for trial := 0; trial < 10; trial++ {
				w := randomWeights(r, threeObjs)
				exact, err := EXA(m, w, objective.NoBounds(), opts)
				if err != nil {
					t.Fatal(err)
				}
				ropts := opts
				ropts.Alpha = alpha
				approx, err := RTA(m, w, ropts)
				if err != nil {
					t.Fatal(err)
				}
				optC := w.Cost(exact.Best.Cost)
				gotC := w.Cost(approx.Best.Cost)
				if gotC > optC*alpha*(1+1e-9) {
					t.Fatalf("%s alpha=%v trial=%d: RTA cost %v exceeds %v * optimum %v",
						q.Name, alpha, trial, gotC, alpha, optC)
				}
				if gotC < optC*(1-1e-9) {
					t.Fatalf("%s: RTA beat the exact optimum (%v < %v) — EXA must be broken", q.Name, gotC, optC)
				}
			}
		}
	}
}

func TestRTAFrontierIsAlphaCover(t *testing.T) {
	// Theorem 3: RTA generates an alphaU-approximate Pareto set.
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	exact, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{1.15, 1.5, 2} {
		ropts := opts
		ropts.Alpha = alpha
		approx, err := RTA(m, objective.UniformWeights(threeObjs), ropts)
		if err != nil {
			t.Fatal(err)
		}
		if !pareto.IsAlphaCover(approx.Frontier.Frontier(), exact.Frontier.Frontier(), alpha*(1+1e-9), threeObjs) {
			cf := pareto.CoverFactor(approx.Frontier.Frontier(), exact.Frontier.Frontier(), threeObjs)
			t.Errorf("alpha=%v: RTA frontier is only a %v-cover", alpha, cf)
		}
		if approx.Frontier.Len() > exact.Frontier.Len() {
			t.Errorf("alpha=%v: approximate frontier larger than exact (%d > %d)",
				alpha, approx.Frontier.Len(), exact.Frontier.Len())
		}
	}
}

func TestRTAPrunesMoreWithLargerAlpha(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	prev := math.MaxInt
	for _, alpha := range []float64{1.01, 1.5, 4} {
		opts := smallOpts(threeObjs)
		opts.Alpha = alpha
		res, err := RTA(m, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Stored > prev {
			t.Errorf("alpha=%v stored %d plans, more than finer precision (%d)", alpha, res.Stats.Stored, prev)
		}
		prev = res.Stats.Stored
	}
}

func TestIRARespectsBoundsAndGuarantee(t *testing.T) {
	// Theorem 6: if a plan respecting the bounds exists, IRA returns a
	// bound-respecting plan with weighted cost within alphaU of the best
	// bound-respecting plan.
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	r := rand.New(rand.NewSource(55))

	minima, err := ObjectiveMinima(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		w := randomWeights(r, threeObjs)
		b := objective.NoBounds().
			With(objective.TotalTime, minima[objective.TotalTime]*(1+r.Float64())).
			With(objective.TupleLoss, r.Float64())
		exact, err := EXA(m, w, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		exactRespects := b.Respects(exact.Best.Cost, threeObjs)

		for _, alpha := range []float64{1.15, 1.5, 2} {
			iopts := opts
			iopts.Alpha = alpha
			res, err := IRA(m, w, b, iopts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Iterations < 1 {
				t.Fatalf("IRA reported %d iterations", res.Stats.Iterations)
			}
			if exactRespects {
				if !b.Respects(res.Best.Cost, threeObjs) {
					t.Fatalf("trial %d alpha %v: feasible instance but IRA plan violates bounds\nplan=%v\nbounds respected by EXA plan %v",
						trial, alpha, res.Best.Cost.FormatOn(threeObjs), exact.Best.Cost.FormatOn(threeObjs))
				}
				if got, opt := w.Cost(res.Best.Cost), w.Cost(exact.Best.Cost); got > opt*alpha*(1+1e-9) {
					t.Fatalf("trial %d alpha %v: IRA cost %v exceeds %v * bounded optimum %v", trial, alpha, got, alpha, opt)
				}
			} else {
				// Infeasible: weighted cost is the only criterion.
				if got, opt := w.Cost(res.Best.Cost), w.Cost(exact.Best.Cost); got > opt*alpha*(1+1e-9) {
					t.Fatalf("trial %d alpha %v (infeasible): IRA cost %v exceeds %v * optimum %v", trial, alpha, got, alpha, opt)
				}
			}
		}
	}
}

func TestIRAUnboundedBehavesLikeRTA(t *testing.T) {
	// Paper Section 8: "the IRA behaves exactly like the RTA if no bounds
	// are specified" — it must terminate after one iteration.
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	w := objective.UniformWeights(threeObjs)
	res, err := IRA(m, w, objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 1 {
		t.Errorf("unbounded IRA ran %d iterations, want 1", res.Stats.Iterations)
	}
	rta, err := RTA(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cost(res.Best.Cost) > w.Cost(rta.Best.Cost)*opts.Alpha {
		t.Error("unbounded IRA result far from RTA result")
	}
}

func TestIRATightBoundsForceRefinement(t *testing.T) {
	// A bound squeezed to the exact minimum forces the IRA through
	// several refinement iterations before it can certify the incumbent.
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	minima, err := ObjectiveMinima(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := objective.NoBounds().With(objective.TotalTime, minima[objective.TotalTime]*1.001)
	opts.Alpha = 2
	res, err := IRA(m, objective.UniformWeights(threeObjs), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations < 2 {
		t.Errorf("tight bound resolved in %d iterations; expected refinement", res.Stats.Iterations)
	}
	if !b.Respects(res.Best.Cost, threeObjs) {
		t.Errorf("IRA plan violates the feasible tight bound: %v vs bound %v",
			res.Best.Cost[objective.TotalTime], b[objective.TotalTime])
	}
	// Per-iteration detail: one entry per iteration, precision strictly
	// refined toward 1, frontier monotonically growing (finer precision
	// keeps more representatives).
	detail := res.Stats.IterationDetail
	if len(detail) != res.Stats.Iterations {
		t.Fatalf("detail entries %d != iterations %d", len(detail), res.Stats.Iterations)
	}
	for i := 1; i < len(detail); i++ {
		if detail[i].Alpha >= detail[i-1].Alpha {
			t.Errorf("iteration %d precision %v did not refine from %v", i, detail[i].Alpha, detail[i-1].Alpha)
		}
		if detail[i].FrontierSize < detail[i-1].FrontierSize {
			t.Errorf("iteration %d frontier shrank: %d -> %d", i, detail[i-1].FrontierSize, detail[i].FrontierSize)
		}
	}
	for _, d := range detail {
		if d.Alpha < 1 || d.Alpha > 2 {
			t.Errorf("iteration precision %v outside (1, alphaU]", d.Alpha)
		}
		if d.Considered <= 0 {
			t.Error("iteration considered no plans")
		}
	}
}

func TestSelingerMatchesEXASingleObjective(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	for _, o := range []objective.ID{objective.TotalTime, objective.Energy, objective.IOLoad} {
		sres, err := Selinger(m, o, Options{MaxDOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		eres, err := EXA(m, objective.SingleWeight(o), objective.NoBounds(),
			Options{Objectives: objective.NewSet(o), MaxDOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sres.Best.Cost[o]-eres.Best.Cost[o]) > 1e-9*eres.Best.Cost[o] {
			t.Errorf("%v: Selinger %v != EXA %v", o, sres.Best.Cost[o], eres.Best.Cost[o])
		}
		if n := sres.Frontier.Len(); n != 1 {
			t.Errorf("%v: Selinger kept %d plans, want exactly 1", o, n)
		}
		if sres.Stats.Stored >= eres.Stats.Stored && eres.Stats.Stored > q.NumRelations() {
			// Single-objective DP stores one plan per set.
			t.Logf("note: Selinger stored %d vs EXA %d", sres.Stats.Stored, eres.Stats.Stored)
		}
	}
}

func TestWeightedSumDPNeverBeatsEXA(t *testing.T) {
	// The weighted-sum DP searches a subset of combinations with unsound
	// pruning; it can never find a better plan than the exact algorithm,
	// and (Example 1) it can find worse ones.
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	objs := objective.NewSet(objective.TotalTime, objective.Energy)
	r := rand.New(rand.NewSource(77))
	sawSuboptimal := false
	for trial := 0; trial < 30; trial++ {
		var w objective.Weights
		w[objective.TotalTime] = r.Float64()
		w[objective.Energy] = r.Float64() * 100 // energy in J is tiny; amplify
		exact, err := EXA(m, w, objective.NoBounds(), Options{Objectives: objs, MaxDOP: 4})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := WeightedSumDP(m, w, Options{Objectives: objs, MaxDOP: 4})
		if err != nil {
			t.Fatal(err)
		}
		ec, wc := w.Cost(exact.Best.Cost), w.Cost(ws.Best.Cost)
		if wc < ec*(1-1e-9) {
			t.Fatalf("trial %d: weighted-sum DP beat EXA (%v < %v) — EXA broken", trial, wc, ec)
		}
		if wc > ec*(1+1e-9) {
			sawSuboptimal = true
		}
	}
	t.Logf("weighted-sum DP suboptimal in at least one of 30 trials: %v", sawSuboptimal)
}

func TestTimeoutDegradation(t *testing.T) {
	// Under an expired deadline the EXA must still terminate quickly and
	// produce a plan, flagged as timed out (paper Section 5.1).
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	opts := Options{Objectives: threeObjs}
	start := time.Now()
	res, err := EXAContext(expired(t), m, objective.UniformWeights(threeObjs), objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("degraded run took too long")
	}
	if !res.Stats.TimedOut {
		t.Error("run should report a timeout")
	}
	if res.Best == nil {
		t.Error("degraded run must still produce a plan")
	}
	if err := res.Best.Validate(q); err != nil {
		t.Errorf("degraded plan invalid: %v", err)
	}
}

func TestObjectiveMinimaAreLowerBounds(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	minima, err := ObjectiveMinima(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := allPlans(m, mustNormalize(t, opts), q.AllTables())
	for _, o := range threeObjs.IDs() {
		best := math.Inf(1)
		for _, p := range oracle {
			best = math.Min(best, p.Cost[o])
		}
		if math.Abs(minima[o]-best) > 1e-9*math.Max(1, best) {
			t.Errorf("%v: minimum %v != oracle best %v", o, minima[o], best)
		}
	}
}

func TestSingleRelationQuery(t *testing.T) {
	cat := catalog.TPCH(0.01)
	q := query.New("single", cat)
	q.AddRelation(catalog.Lineitem, "l", 0.9)
	m := costmodel.NewDefault(q)
	res, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || !res.Best.IsScan() {
		t.Fatal("single-relation plan must be a scan")
	}
	if res.Frontier.Len() < 2 {
		t.Errorf("expected several Pareto scan alternatives, got %d", res.Frontier.Len())
	}
}

func TestOptionsValidation(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	if _, err := EXA(m, objective.Weights{}, objective.NoBounds(), Options{}); err == nil {
		t.Error("empty objectives must be rejected")
	}
	if _, err := RTA(m, objective.Weights{}, Options{Objectives: threeObjs, Alpha: 0.5}); err == nil {
		t.Error("alpha < 1 must be rejected")
	}
	if _, err := EXA(m, objective.Weights{}, objective.NoBounds(), Options{Objectives: threeObjs, MaxDOP: 9}); err == nil {
		t.Error("MaxDOP out of range must be rejected")
	}
	var w objective.Weights
	w[objective.TotalTime] = -1
	if _, err := EXA(m, w, objective.NoBounds(), Options{Objectives: threeObjs}); err == nil {
		t.Error("negative weights must be rejected")
	}
}

func TestSamplingDefaultFollowsTupleLoss(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	// Without tuple loss in the objective set, no plan may sample.
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	res, err := EXA(m, objective.UniformWeights(objs), objective.NoBounds(), Options{Objectives: objs})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Frontier.Plans() {
		for _, s := range p.Scans() {
			if s.Scan == 2 { // plan.SampleScan
				t.Fatal("sampling scan in plan space without tuple-loss objective")
			}
		}
	}
	// With tuple loss active, the frontier should include sampled plans.
	res2, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	sampled := false
	for _, p := range res2.Frontier.Plans() {
		if p.Cost[objective.TupleLoss] > 0 {
			sampled = true
		}
	}
	if !sampled {
		t.Error("tuple-loss frontier contains no sampled plan")
	}
}

func TestStatsPlausible(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	res, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Considered <= 0 || st.Stored <= 0 || st.ParetoLast <= 0 {
		t.Errorf("implausible stats: %+v", st)
	}
	if st.Stored < res.Frontier.Len() {
		t.Error("total stored below final archive size")
	}
	if st.MemoryBytes != int64(st.Stored)*storedPlanBytes {
		t.Error("memory estimate inconsistent with stored plans")
	}
	if st.ParetoLast != res.Frontier.Len() {
		t.Errorf("ParetoLast %d != final frontier %d", st.ParetoLast, res.Frontier.Len())
	}
	if st.Iterations != 1 {
		t.Errorf("EXA iterations = %d", st.Iterations)
	}
}

func mustNormalize(t testing.TB, o Options) Options {
	t.Helper()
	n, err := o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

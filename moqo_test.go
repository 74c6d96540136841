package moqo_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"moqo"
)

func smallCatalog(t testing.TB) *moqo.Catalog {
	t.Helper()
	return moqo.TPCHCatalog(0.01)
}

func TestOptimizeQuickstart(t *testing.T) {
	cat := smallCatalog(t)
	q, err := moqo.TPCHQuery(3, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy, moqo.TupleLoss},
		Weights: map[moqo.Objective]float64{
			moqo.TotalTime: 1, moqo.Energy: 0.2, moqo.TupleLoss: 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || len(res.Frontier) == 0 {
		t.Fatal("empty result")
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Errorf("invalid plan: %v", err)
	}
	if !strings.Contains(res.PlanText(), "customer") {
		t.Errorf("plan text missing relation:\n%s", res.PlanText())
	}
	if res.Cost(moqo.TotalTime) <= 0 {
		t.Error("non-positive time cost")
	}
	if got := len(res.Objectives()); got != 3 {
		t.Errorf("Objectives() returned %d entries", got)
	}
	if len(res.FrontierVectors()) != len(res.Frontier) {
		t.Error("FrontierVectors length mismatch")
	}
}

func TestOptimizeDefaultsToRTAOrIRA(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(12, cat)
	// Unbounded: defaults to RTA (one iteration, no bounds).
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations != 1 {
		t.Errorf("default unbounded run iterations = %d", res.Stats.Iterations)
	}
	// Bounded: defaults to IRA and respects a generous bound.
	bound := res.Cost(moqo.TotalTime) * 10
	res2, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
		Bounds:     map[moqo.Objective]float64{moqo.TotalTime: bound},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost(moqo.TotalTime) > bound {
		t.Error("bounded default run violates a satisfiable bound")
	}
}

// TestAlgorithmDefaultingRule documents and pins the defaulting rule: the
// zero value of Request.Algorithm is AlgoAuto (RTA unbounded, IRA
// bounded), and any explicitly set algorithm — including AlgoEXA — runs
// as requested. Result.Algorithm reports what ran.
func TestAlgorithmDefaultingRule(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(12, cat)
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint}

	// Zero value: auto → RTA without bounds.
	res, err := moqo.Optimize(moqo.Request{Query: q, Objectives: objs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != moqo.AlgoRTA {
		t.Errorf("auto unbounded resolved to %v, want rta", res.Algorithm)
	}

	// Auto with bounds → IRA.
	res, err = moqo.Optimize(moqo.Request{
		Query: q, Objectives: objs,
		Bounds: map[moqo.Objective]float64{moqo.TotalTime: res.Cost(moqo.TotalTime) * 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != moqo.AlgoIRA {
		t.Errorf("auto bounded resolved to %v, want ira", res.Algorithm)
	}

	// The historical footgun: an explicit AlgoEXA used to be silently
	// overridden by the default; it must run EXA.
	res, err = moqo.Optimize(moqo.Request{Query: q, Algorithm: moqo.AlgoEXA, Objectives: objs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != moqo.AlgoEXA {
		t.Errorf("explicit EXA resolved to %v", res.Algorithm)
	}

	// Parse round-trip for the auto marker.
	if alg, err := moqo.ParseAlgorithm("auto"); err != nil || alg != moqo.AlgoAuto {
		t.Errorf("ParseAlgorithm(auto) = %v, %v", alg, err)
	}
}

// TestOptimizeWorkers: the Workers knob must leave the selected plan and
// search statistics unchanged (the parallel engine searches the identical
// plan space) while using the requested concurrency.
func TestOptimizeWorkers(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(5, cat)
	req := moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy, moqo.TupleLoss},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	}
	serial, err := moqo.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Workers = 4
	parallel, err := moqo.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Plan.Cost != parallel.Plan.Cost {
		t.Errorf("workers=4 cost %v != serial %v", parallel.Plan.Cost, serial.Plan.Cost)
	}
	if serial.Stats.Considered != parallel.Stats.Considered {
		t.Errorf("workers=4 considered %d != serial %d", parallel.Stats.Considered, serial.Stats.Considered)
	}
	if len(serial.Frontier) != len(parallel.Frontier) {
		t.Errorf("workers=4 frontier %d != serial %d", len(parallel.Frontier), len(serial.Frontier))
	}

	req.Workers = -1
	if _, err := moqo.Optimize(req); err == nil {
		t.Error("negative Workers accepted")
	}
}

// TestConcurrentOptimizeSharedQuery: a built Query is only read, so any
// number of optimizations may run on one query object at once — the paper's
// Figure 3 and multi-user scenarios are many optimizations of one query.
// Every goroutine's answer is bit-for-bit the answer of the same request run
// alone. The concurrent runs are the first to touch their query object:
// when the estimate memo lived on the Query, unlocked, that was a fatal
// "concurrent map read and map write" (a race report under -race).
func TestConcurrentOptimizeSharedQuery(t *testing.T) {
	cat := smallCatalog(t)
	requests := func() []moqo.Request {
		q, err := moqo.TPCHQuery(8, cat)
		if err != nil {
			t.Fatal(err)
		}
		two := []moqo.Objective{moqo.TotalTime, moqo.Energy}
		three := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.Energy}
		w := map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.1, moqo.Energy: 0.3}
		return []moqo.Request{
			{Query: q, Algorithm: moqo.AlgoEXA, Objectives: two,
				Weights: map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.3}},
			{Query: q, Algorithm: moqo.AlgoRTA, Alpha: 1.5, Objectives: three, Weights: w},
			{Query: q, Algorithm: moqo.AlgoIRA, Alpha: 1.5, Objectives: three, Weights: w,
				Bounds: map[moqo.Objective]float64{moqo.BufferFootprint: 1e9}},
			{Query: q, Algorithm: moqo.AlgoSelinger, Objectives: two},
		}
	}
	var want []*moqo.Result
	for i, req := range requests() {
		res, err := moqo.Optimize(req)
		if err != nil {
			t.Fatalf("request %d alone: %v", i, err)
		}
		want = append(want, res)
	}

	reqs := requests() // a second query object, untouched by any run
	got := make([]*moqo.Result, 3*len(reqs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = moqo.Optimize(reqs[g%len(reqs)])
		}()
	}
	wg.Wait()
	for g, res := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		alone := want[g%len(reqs)]
		assertSameAnswer(t, fmt.Sprintf("goroutine %d", g), res, alone)
		if res.Plan.Cost != alone.Plan.Cost {
			t.Errorf("goroutine %d: cost %v, alone %v", g, res.Plan.Cost, alone.Plan.Cost)
		}
	}
}

func TestOptimizeEXAExplicit(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(14, cat)
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoEXA,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rta, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      2,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	exaCost := res.Cost(moqo.TotalTime) + res.Cost(moqo.Energy)
	rtaCost := rta.Cost(moqo.TotalTime) + rta.Cost(moqo.Energy)
	if rtaCost > exaCost*2.000001 {
		t.Errorf("RTA(2) cost %v beyond guarantee vs EXA %v", rtaCost, exaCost)
	}
	if rtaCost < exaCost*0.999999 {
		t.Errorf("RTA beat EXA: %v < %v", rtaCost, exaCost)
	}
}

func TestOptimizeSelingerAndWeightedSum(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(3, cat)
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoSelinger,
		Objectives: []moqo.Objective{moqo.TotalTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) != 1 {
		t.Errorf("Selinger frontier size = %d, want 1", len(res.Frontier))
	}
	ws, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoWeightedSum,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ws.Plan == nil {
		t.Error("weighted-sum baseline returned no plan")
	}
}

func TestOptimizeValidation(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(1, cat)
	cases := map[string]moqo.Request{
		"no query":      {Objectives: []moqo.Objective{moqo.TotalTime}},
		"no objectives": {Query: q},
		"weight on inactive objective": {
			Query:      q,
			Objectives: []moqo.Objective{moqo.TotalTime},
			Weights:    map[moqo.Objective]float64{moqo.Energy: 1},
		},
		"bound on inactive objective": {
			Query:      q,
			Objectives: []moqo.Objective{moqo.TotalTime},
			Bounds:     map[moqo.Objective]float64{moqo.Energy: 1},
		},
		"RTA with bounds": {
			Query:      q,
			Algorithm:  moqo.AlgoRTA,
			Objectives: []moqo.Objective{moqo.TotalTime},
			Bounds:     map[moqo.Objective]float64{moqo.TotalTime: 1},
		},
		"bad alpha": {
			Query:      q,
			Algorithm:  moqo.AlgoRTA,
			Alpha:      0.3,
			Objectives: []moqo.Objective{moqo.TotalTime},
		},
		"unknown algorithm": {
			Query:      q,
			Algorithm:  moqo.Algorithm(42),
			Objectives: []moqo.Objective{moqo.TotalTime},
		},
	}
	for name, req := range cases {
		if _, err := moqo.Optimize(req); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestNonFiniteAlphaRejected: an Alpha of NaN or +Inf, or a +Inf
// per-objective precision, is a validation error from Resolve and from every
// entry point — never a run with no guarantee behind it, whose snapshot the
// decoder would refuse.
func TestNonFiniteAlphaRejected(t *testing.T) {
	q, err := moqo.TPCHQuery(5, smallCatalog(t))
	if err != nil {
		t.Fatal(err)
	}
	objs := []moqo.Objective{moqo.TotalTime, moqo.Energy}
	cases := map[string]moqo.Request{
		"precision +Inf": {
			Query: q, Algorithm: moqo.AlgoRTA, Objectives: objs,
			Precisions: map[moqo.Objective]float64{moqo.Energy: math.Inf(1)},
		},
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1)} {
		for _, alg := range []moqo.Algorithm{moqo.AlgoAuto, moqo.AlgoEXA, moqo.AlgoRTA, moqo.AlgoIRA} {
			req := moqo.Request{Query: q, Algorithm: alg, Alpha: alpha, Objectives: objs}
			if alg == moqo.AlgoIRA {
				req.Bounds = map[moqo.Objective]float64{moqo.TotalTime: 1e12}
			}
			cases[fmt.Sprintf("%v alpha %v", alg, alpha)] = req
		}
	}
	for name, req := range cases {
		if _, err := req.Resolve(); err == nil {
			t.Errorf("%s: Resolve accepted it", name)
		}
		if res, snap, err := moqo.OptimizeSnapshot(req); err == nil {
			t.Errorf("%s: OptimizeSnapshot answered (%d frontier rows, snapshot %v)", name, len(res.Frontier), snap != nil)
		}
	}
}

func TestOptimizeTimeout(t *testing.T) {
	cat := moqo.TPCHCatalog(1)
	q, _ := moqo.TPCHQuery(8, cat)
	start := time.Now()
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoEXA,
		Objectives: moqo.AllObjectives(),
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
		Timeout:    200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("timeout run took %v", elapsed)
	}
	if !res.Stats.TimedOut {
		t.Error("q8 with 9 objectives in 200ms should time out")
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Errorf("degraded plan invalid: %v", err)
	}
}

func TestCustomCatalogAndQuery(t *testing.T) {
	cat := moqo.NewCatalog()
	cat.AddTable("users", 10000, 64, "id")
	cat.AddTable("events", 500000, 128, "event_id")
	events := cat.MustLookup("events")
	cat.AddIndex(events, "user_id", false)

	q := moqo.NewQuery("user-events", cat)
	u := q.AddRelation("users", "u", 0.5)
	e := q.AddRelation("events", "e", 0.1)
	q.AddFKJoin(e, "user_id", u, "id")

	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Plan.Validate(q); err != nil {
		t.Errorf("invalid plan: %v", err)
	}
}

func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range []moqo.Algorithm{moqo.AlgoEXA, moqo.AlgoRTA, moqo.AlgoIRA, moqo.AlgoSelinger, moqo.AlgoWeightedSum} {
		got, err := moqo.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip failed for %v: %v %v", a, got, err)
		}
	}
	if _, err := moqo.ParseAlgorithm("bogus"); err == nil {
		t.Error("ParseAlgorithm(bogus) succeeded")
	}
	if moqo.Algorithm(42).String() != "algorithm(42)" {
		t.Error("unknown algorithm String")
	}
}

func TestTPCHQueryNumbers(t *testing.T) {
	nums := moqo.TPCHQueryNumbers()
	if len(nums) != 22 {
		t.Fatalf("got %d query numbers", len(nums))
	}
	nums[0] = 99 // must not corrupt the library's copy
	if moqo.TPCHQueryNumbers()[0] == 99 {
		t.Error("TPCHQueryNumbers exposes internal state")
	}
}

func TestPerObjectivePrecisions(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(3, cat)
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
		Precisions: map[moqo.Objective]float64{moqo.BufferFootprint: 4},
		// TotalTime has no entry: tracked exactly.
	})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoEXA,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Time carries all the weight and is tracked exactly, so the result
	// must match the exact optimum on time.
	if got, want := res.Cost(moqo.TotalTime), exact.Cost(moqo.TotalTime); got > want*1.000001 {
		t.Errorf("exact-precision objective drifted: %v vs %v", got, want)
	}
	// Validation paths.
	if _, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Objectives: []moqo.Objective{moqo.TotalTime},
		Precisions: map[moqo.Objective]float64{moqo.Energy: 2},
	}); err == nil {
		t.Error("precision on inactive objective accepted")
	}
	if _, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoEXA,
		Objectives: []moqo.Objective{moqo.TotalTime},
		Precisions: map[moqo.Objective]float64{moqo.TotalTime: 2},
	}); err == nil {
		t.Error("precisions with EXA accepted")
	}
}

func TestCostParamsOverride(t *testing.T) {
	cat := smallCatalog(t)
	q, _ := moqo.TPCHQuery(6, cat)
	slow := moqo.DefaultCostParams()
	slow.SeqPageMs *= 100
	slow.RandPageMs *= 100 // keep index scans from absorbing the change
	fast, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Objectives: []moqo.Objective{moqo.TotalTime},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	slower, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Objectives: []moqo.Objective{moqo.TotalTime},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
		CostParams: &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slower.Cost(moqo.TotalTime) <= fast.Cost(moqo.TotalTime) {
		t.Error("100x IO cost should increase estimated time")
	}
}

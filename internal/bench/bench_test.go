package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/workload"
)

// quickConfig keeps harness tests fast: a few small queries, small scale
// factor, short timeout.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.ScaleFactor = 0.05
	cfg.Timeout = 500 * time.Millisecond
	cfg.CasesPerConfig = 2
	cfg.Queries = []int{1, 12, 3}
	cfg.ObjectiveCounts = []int{3}
	cfg.BoundCounts = []int{3}
	cfg.Alphas = []float64{1.5}
	return cfg
}

func TestFigure5(t *testing.T) {
	cfg := quickConfig()
	rows, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 queries x 2 objective counts (1 is prepended to {3}).
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if len(r.Cells) != 1 || r.Cells[0].Algorithm != "EXA" {
			t.Fatalf("figure 5 compares only the EXA, got %+v", r.Cells)
		}
		c := r.Cells[0]
		if c.Cases != cfg.CasesPerConfig {
			t.Errorf("q%d: %d cases", r.QueryNum, c.Cases)
		}
		if c.AvgTimeMs < 0 || c.AvgMemKB <= 0 || c.AvgPareto < 1 {
			t.Errorf("q%d k=%d: implausible metrics %+v", r.QueryNum, r.Param, c)
		}
		if c.AvgWCostPct < 100-1e-6 {
			t.Errorf("wcost below 100%%: %v", c.AvgWCostPct)
		}
	}
	// Single-objective runs store exactly one Pareto plan per set (the
	// paper's "always one for SOQO" observation).
	for _, r := range rows {
		if r.Param == 1 && r.Cells[0].AvgPareto != 1 {
			t.Errorf("q%d: single-objective Pareto count %v, want 1", r.QueryNum, r.Cells[0].AvgPareto)
		}
	}
}

func TestFigure9(t *testing.T) {
	cfg := quickConfig()
	rows, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if len(r.Cells) != 2 {
			t.Fatalf("want EXA + RTA(1.5), got %d cells", len(r.Cells))
		}
		exa, rta := r.Cells[0], r.Cells[1]
		if exa.Algorithm != "EXA" || rta.Algorithm != "RTA(1.5)" {
			t.Fatalf("unexpected algorithms %q %q", exa.Algorithm, rta.Algorithm)
		}
		// Without timeouts the EXA is exact, so its weighted cost is the
		// best known (100%) and RTA stays within the guarantee.
		if exa.Timeouts == 0 && exa.AvgWCostPct > 100+1e-6 {
			t.Errorf("q%d: exact algorithm not at 100%%: %v", r.QueryNum, exa.AvgWCostPct)
		}
		if exa.Timeouts == 0 && rta.Timeouts == 0 && rta.AvgWCostPct > 150+1e-6 {
			t.Errorf("q%d: RTA(1.5) beyond guarantee: %v%%", r.QueryNum, rta.AvgWCostPct)
		}
		if rta.AvgPareto > exa.AvgPareto+1e-9 && exa.Timeouts == 0 {
			t.Errorf("q%d: RTA stored more Pareto plans than EXA", r.QueryNum)
		}
	}
}

func TestFigure10(t *testing.T) {
	cfg := quickConfig()
	rows, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		exa, ira := r.Cells[0], r.Cells[1]
		if !strings.HasPrefix(ira.Algorithm, "IRA(") {
			t.Fatalf("second cell should be IRA, got %q", ira.Algorithm)
		}
		if ira.AvgIters < 1 {
			t.Errorf("q%d: IRA iterations %v", r.QueryNum, ira.AvgIters)
		}
		// When the exact run found a feasible plan, the IRA must too.
		if exa.Timeouts == 0 && exa.AvgBoundViolations == 0 && ira.Timeouts == 0 && ira.AvgBoundViolations > 0 {
			t.Errorf("q%d: IRA violates bounds the EXA satisfied", r.QueryNum)
		}
	}
}

func TestFigure7(t *testing.T) {
	pts := Figure7(DefaultComplexityParams())
	if len(pts) != 9 { // n = 2..10
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.N != i+2 {
			t.Errorf("point %d has n=%d", i, p.N)
		}
		if p.Selinger <= 0 || p.EXA <= 0 {
			t.Error("non-positive complexity")
		}
		// Coarser precision => smaller archives => cheaper.
		if p.RTA[1.5] >= p.RTA[1.05] {
			t.Errorf("n=%d: RTA(1.5) %v not cheaper than RTA(1.05) %v", p.N, p.RTA[1.5], p.RTA[1.05])
		}
		if p.Selinger >= p.RTA[1.5] {
			t.Errorf("n=%d: Selinger should be cheapest", p.N)
		}
	}
	// The EXA curve must overtake the RTA curves as n grows (the paper's
	// qualitative point: EXA grows super-exponentially).
	last := pts[len(pts)-1]
	if last.EXA <= last.RTA[1.05] {
		t.Errorf("at n=%d EXA (%v) should exceed RTA(1.05) (%v)", last.N, last.EXA, last.RTA[1.05])
	}
	// At small n the approximation machinery costs more than exhaustive
	// enumeration — the crossover the paper's Figure 7 shows.
	first := pts[0]
	if first.EXA >= first.RTA[1.05] {
		t.Errorf("at n=2 EXA (%v) should still be below RTA(1.05) (%v)", first.EXA, first.RTA[1.05])
	}
}

func TestNumBushyPlans(t *testing.T) {
	// (2(n-1))!/(n-1)! join orders; j^(2n-1) operator choices.
	// n=2, j=1: 2!/1! = 2 bushy plans... with one operator: 1^3 * 2 = 2.
	if got := NumBushyPlans(1, 2); got != 2 {
		t.Errorf("NumBushyPlans(1,2) = %v, want 2", got)
	}
	// n=3, j=1: 4!/2! = 12.
	if got := NumBushyPlans(1, 3); got != 12 {
		t.Errorf("NumBushyPlans(1,3) = %v, want 12", got)
	}
	// Operator factor: j=2, n=2: 2^3 * 2 = 16.
	if got := NumBushyPlans(2, 2); got != 16 {
		t.Errorf("NumBushyPlans(2,2) = %v, want 16", got)
	}
}

func TestFigure4(t *testing.T) {
	cfg := quickConfig()
	res, err := Figure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Alpha != 2 || res[1].Alpha != 1.25 {
		t.Fatalf("want alpha 2 and 1.25 results, got %+v", res)
	}
	coarse, fine := res[0], res[1]
	if len(coarse.Points) < 3 {
		t.Errorf("coarse frontier too small: %d", len(coarse.Points))
	}
	if len(fine.Points) <= len(coarse.Points) {
		t.Errorf("finer precision should resolve more tradeoffs: %d vs %d",
			len(fine.Points), len(coarse.Points))
	}
	for _, p := range append(coarse.Points, fine.Points...) {
		if p.TupleLoss < 0 || p.TupleLoss > 1 {
			t.Errorf("tuple loss out of range: %v", p.TupleLoss)
		}
		if p.Buffer <= 0 || p.Time <= 0 {
			t.Errorf("non-positive cost: %+v", p)
		}
	}
	// Sorted by tuple loss for rendering.
	for i := 1; i < len(fine.Points); i++ {
		if fine.Points[i].TupleLoss < fine.Points[i-1].TupleLoss {
			t.Error("points not sorted by tuple loss")
		}
	}
}

func TestFigure3Evolution(t *testing.T) {
	cfg := quickConfig()
	cfg.ScaleFactor = 1 // the evolution needs realistic table sizes
	cfg.Timeout = 10 * time.Second
	steps, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("got %d steps", len(steps))
	}
	q := workload.MustQuery(3, cfg.catalog())
	sigs := make([]string, 3)
	for i, s := range steps {
		if s.Plan == nil {
			t.Fatalf("step %d has no plan", i)
		}
		if err := s.Plan.Validate(q); err != nil {
			t.Errorf("step %d: %v", i, err)
		}
		if s.Plan.Cost[objective.TupleLoss] != 0 {
			t.Errorf("step %d: tuple loss bound violated", i)
		}
		sigs[i] = s.Plan.Signature(q)
	}
	// The paper's evolution: each preference change changes the plan.
	if sigs[0] == sigs[1] {
		t.Errorf("buffer weight did not change the plan:\n%s", sigs[0])
	}
	if sigs[1] == sigs[2] {
		t.Errorf("startup bound did not change the plan:\n%s", sigs[1])
	}
	// Step (a) minimizes time alone: hash joins. Step (b) must avoid
	// hash joins; step (c) must use only pipelined index-nested-loops.
	if !strings.Contains(sigs[0], "HashJ") {
		t.Errorf("step (a) should use hash joins: %s", sigs[0])
	}
	if strings.Contains(sigs[1], "HashJ") {
		t.Errorf("step (b) should avoid hash joins: %s", sigs[1])
	}
	if strings.Contains(sigs[2], "HashJ") || strings.Contains(sigs[2], "SMJ") {
		t.Errorf("step (c) should be fully pipelined: %s", sigs[2])
	}
	// Step (c) respects its startup bound.
	if !steps[2].Bounds.Respects(steps[2].Plan.Cost, Figure3Objectives) {
		t.Error("step (c) plan violates its bounds")
	}
}

func TestRunningExample(t *testing.T) {
	e := NewRunningExample()
	frontier := e.ParetoFrontier()
	if len(frontier) != 4 {
		t.Fatalf("frontier has %d points, want 4", len(frontier))
	}
	wOpt := e.WeightedOptimum()
	if wOpt[objective.BufferFootprint] != 1 || wOpt[objective.TotalTime] != 2 {
		t.Errorf("weighted optimum = %v, want (buffer=1, time=2)", wOpt.FormatOn(e.Objectives))
	}
	bOpt := e.BoundedOptimum()
	if bOpt[objective.BufferFootprint] != 0.5 || bOpt[objective.TotalTime] != 3 {
		t.Errorf("bounded optimum = %v, want (buffer=0.5, time=3)", bOpt.FormatOn(e.Objectives))
	}
	if wOpt == bOpt {
		t.Error("bounds must change the optimum (Figure 1)")
	}
	// Figure 6: approximate domination covers strictly more points.
	center := frontier[1]
	approx := e.ApproximatelyDominated(center, 2)
	if len(approx) == 0 {
		t.Error("no additional approximately dominated points at alpha=2")
	}
	for _, v := range approx {
		if center.Dominates(v, e.Objectives) {
			t.Error("approximately dominated set must exclude exactly dominated points")
		}
	}
}

func TestBoundedPathology(t *testing.T) {
	// Figure 8: the alpha-cover misses the only cheap in-bounds plan.
	alpha := 1.5
	ref, cover, bounds, objs := BoundedPathology(alpha)
	if !pareto.IsAlphaCover(cover, ref, alpha+1e-12, objs) {
		t.Fatal("cover is not an alpha-cover of the reference")
	}
	bestRef, bestCover := 1e18, 1e18
	w := objective.UniformWeights(objective.NewSet(objective.TotalTime))
	for _, v := range ref {
		if bounds.Respects(v, objs) && w.Cost(v) < bestRef {
			bestRef = w.Cost(v)
		}
	}
	for _, v := range cover {
		if bounds.Respects(v, objs) && w.Cost(v) < bestCover {
			bestCover = w.Cost(v)
		}
	}
	if bestCover <= bestRef*alpha {
		t.Errorf("pathology not exhibited: cover best %v vs ref best %v", bestCover, bestRef)
	}
}

func TestRenderers(t *testing.T) {
	cfg := quickConfig()
	cfg.Queries = []int{1}
	rows, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	txt := RenderRows(rows, "objs")
	if !strings.Contains(txt, "EXA") || !strings.Contains(txt, "q1") {
		t.Errorf("RenderRows output suspicious:\n%s", txt)
	}
	csv := RowsCSV(rows, "objs")
	if !strings.HasPrefix(csv, "query,tables,objs,algorithm") {
		t.Errorf("CSV header wrong: %s", csv[:50])
	}
	if strings.Count(csv, "\n") != len(rows)+1 {
		t.Error("CSV row count wrong")
	}

	comp := RenderComplexity(Figure7(DefaultComplexityParams()))
	if !strings.Contains(comp, "Selinger") || !strings.Contains(comp, "RTA(1.05)") {
		t.Errorf("complexity render missing columns:\n%s", comp)
	}
	if RenderComplexity(nil) != "" {
		t.Error("empty complexity render should be empty")
	}

	f4 := Figure4Result{Alpha: 2, Points: []FrontierPoint{{TupleLoss: 0.5, Buffer: 100, Time: 10}}}
	if !strings.Contains(RenderFrontier(f4), "0.5") {
		t.Error("frontier render missing point")
	}
	if !strings.HasPrefix(FrontierCSV(f4), "tuple_loss,buffer_bytes,time_ms\n") {
		t.Error("frontier CSV header wrong")
	}

	steps := []EvolutionStep{{Description: "demo", PlanText: "SeqScan x\n"}}
	if !strings.Contains(RenderEvolution(steps), "(a) demo") {
		t.Error("evolution render wrong")
	}
}

func TestScatter(t *testing.T) {
	pts := [][2]float64{{1, 1}, {2, 3}, {4, 2}}
	marked := [][2]float64{{3, 3}}
	s := Scatter(pts, marked, 20, 8, "buffer", "time")
	if !strings.Contains(s, "*") || !strings.Contains(s, "o") {
		t.Errorf("scatter missing points:\n%s", s)
	}
	if !strings.Contains(s, "buffer") || !strings.Contains(s, "time") {
		t.Error("scatter missing labels")
	}
	// Degenerate inputs must not panic.
	_ = Scatter(nil, nil, 0, 0, "x", "y")
	_ = Scatter([][2]float64{{0, 0}}, nil, 10, 5, "x", "y")
}

func TestFigureRowsPropagatesErrors(t *testing.T) {
	cfg := quickConfig()
	calls := 0
	boom := namedAlgo{name: "boom", run: func(context.Context, *costmodel.Model, workload.TestCase) (core.Result, error) {
		calls++
		return core.Result{}, errTest
	}}
	rows, err := cfg.figureRows("errors", []int{3}, []namedAlgo{boom}, weightedCases)
	if !errors.Is(err, errTest) || rows != nil {
		t.Fatalf("figureRows = %d rows, %v; want no rows and the algorithm's error", len(rows), err)
	}
	if calls != 1 {
		t.Errorf("the failing algorithm ran %d times; the first error must end the experiment", calls)
	}
}

var errTest = errors.New("test error")

func TestConfigRNGDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a := cfg.newRNG("fig9", 5, 3).Int63()
	b := cfg.newRNG("fig9", 5, 3).Int63()
	if a != b {
		t.Error("same cell must get the same RNG stream")
	}
	if cfg.newRNG("fig9", 5, 3).Int63() == cfg.newRNG("fig5", 5, 3).Int63() {
		t.Error("different figures should get different streams")
	}
}

func TestCellAggregation(t *testing.T) {
	cells := []Cell{{Algorithm: "A"}, {Algorithm: "B"}}
	perCase := [][]caseRun{
		{{name: "A", wcost: 10}, {name: "B", wcost: 20}},
		{{name: "A", wcost: 10}, {name: "B", wcost: 10}},
	}
	aggregate(cells, perCase)
	if cells[0].AvgWCostPct != 100 {
		t.Errorf("A wcost%% = %v, want 100", cells[0].AvgWCostPct)
	}
	if cells[1].AvgWCostPct != 150 { // (200% + 100%) / 2
		t.Errorf("B wcost%% = %v, want 150", cells[1].AvgWCostPct)
	}
	if cells[0].TimeoutPct() != 0 {
		t.Error("no timeouts expected")
	}
	var empty Cell
	if empty.TimeoutPct() != 0 {
		t.Error("empty cell timeout pct")
	}
}

package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/workload"
)

// Config parameterizes a harness run. The defaults are scaled down from
// the paper's setup (two-hour timeout, 20 test cases per configuration) so
// a full reproduction finishes in minutes on a laptop; raise Timeout and
// CasesPerConfig to approach the paper's exact setup.
type Config struct {
	// ScaleFactor of the TPC-H catalog (paper: 1).
	ScaleFactor float64
	// Timeout per optimizer run (paper: 2h; default here: 2s).
	Timeout time.Duration
	// CasesPerConfig is the number of random test cases per (query,
	// configuration) pair (paper: 20; default here: 3).
	CasesPerConfig int
	// Seed makes workloads reproducible.
	Seed int64
	// Queries restricts the TPC-H query set (numbers; nil = all 22, in
	// paper order).
	Queries []int
	// Alphas are the approximation precisions compared for RTA and IRA
	// (paper: 1.15, 1.5, 2).
	Alphas []float64
	// ObjectiveCounts for Figure 5/9 (paper: 1/3/6/9 and 3/6/9).
	ObjectiveCounts []int
	// BoundCounts for Figure 10 (paper: 3/6/9).
	BoundCounts []int
	// EngineWorkers shards each optimizer run's dynamic program across
	// this many goroutines (core.Options.Workers). 0 or 1 = sequential.
	EngineWorkers int
}

// DefaultConfig returns the scaled-down default setup.
func DefaultConfig() Config {
	return Config{
		ScaleFactor:     1,
		Timeout:         2 * time.Second,
		CasesPerConfig:  3,
		Seed:            1,
		Queries:         nil,
		Alphas:          []float64{1.15, 1.5, 2},
		ObjectiveCounts: []int{3, 6, 9},
		BoundCounts:     []int{3, 6, 9},
	}
}

// engine returns the optimizer options of one run over objs at precision
// alpha (0 for the exact algorithm and single-objective minima).
func (c Config) engine(objs objective.Set, alpha float64) core.Options {
	return core.Options{Objectives: objs, Alpha: alpha, Workers: c.EngineWorkers}
}

// deadline returns the context one optimizer run is bounded by: Timeout
// from now, or none when Timeout is 0.
func (c Config) deadline() (context.Context, context.CancelFunc) {
	if c.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), c.Timeout)
}

// queries resolves the query list in paper order.
func (c Config) queries() []int {
	if len(c.Queries) > 0 {
		return c.Queries
	}
	return workload.PaperOrder
}

// Cell aggregates one algorithm's results over the test cases of one
// (query, configuration) pair — one bar of one subplot of Figures 5/9/10.
type Cell struct {
	Algorithm string
	Cases     int
	Timeouts  int
	// Arithmetic averages over the test cases, as in the paper.
	AvgTimeMs   float64
	AvgMemKB    float64
	AvgPareto   float64
	AvgIters    float64
	AvgWCostPct float64 // weighted cost as % of best-known, >= 100
	// AvgBoundViolations counts bounded objectives the plan exceeded
	// (bounded MOQO only; 0 when every returned plan was feasible or no
	// feasible plan existed).
	AvgBoundViolations float64
}

// TimeoutPct returns the percentage of test cases that hit the timeout.
func (c Cell) TimeoutPct() float64 {
	if c.Cases == 0 {
		return 0
	}
	return 100 * float64(c.Timeouts) / float64(c.Cases)
}

// add folds one run into the aggregate (avg fields hold sums until
// finalize is called).
func (c *Cell) add(st core.Stats, wcostPct float64, boundViolations int) {
	c.Cases++
	if st.TimedOut {
		c.Timeouts++
	}
	c.AvgTimeMs += float64(st.Duration) / float64(time.Millisecond)
	c.AvgMemKB += float64(st.MemoryBytes) / 1024
	c.AvgPareto += float64(st.ParetoLast)
	c.AvgIters += float64(st.Iterations)
	c.AvgWCostPct += wcostPct
	c.AvgBoundViolations += float64(boundViolations)
}

// finalize turns the accumulated sums into averages.
func (c *Cell) finalize() {
	if c.Cases == 0 {
		return
	}
	n := float64(c.Cases)
	c.AvgTimeMs /= n
	c.AvgMemKB /= n
	c.AvgPareto /= n
	c.AvgIters /= n
	c.AvgWCostPct /= n
	c.AvgBoundViolations /= n
}

// Row is one (query, parameter) group of a figure: the cells of all
// compared algorithms. Param is the number of objectives (Figures 5/9) or
// the number of bounds (Figure 10).
type Row struct {
	QueryNum  int
	NumTables int
	Param     int
	Cells     []Cell
}

// caseRun is one algorithm's run on one test case (runAlgorithms): the
// plan's weighted cost together with the run statistics.
type caseRun struct {
	name  string
	stats core.Stats
	wcost float64
	// violations counts bounded objectives the returned plan exceeds.
	violations int
}

// runAlgorithms executes every algorithm of the comparison on one test
// case, each under its own deadline. algs maps a display name to a closure
// running the algorithm.
func (c Config) runAlgorithms(tc workload.TestCase, m *costmodel.Model, algs []namedAlgo) ([]caseRun, error) {
	runs := make([]caseRun, 0, len(algs))
	for _, a := range algs {
		ctx, cancel := c.deadline()
		res, err := a.run(ctx, m, tc)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("bench: %s on %s: %w", a.name, tc, err)
		}
		violations := 0
		for _, o := range tc.Bounds.BoundedObjectives(tc.Objectives) {
			if res.Best.Cost[o] > tc.Bounds[o] {
				violations++
			}
		}
		runs = append(runs, caseRun{
			name:       a.name,
			stats:      res.Stats,
			wcost:      tc.Weights.Cost(res.Best.Cost),
			violations: violations,
		})
	}
	return runs, nil
}

type namedAlgo struct {
	name string
	run  func(context.Context, *costmodel.Model, workload.TestCase) (core.Result, error)
}

// exaAlgo builds the EXA comparator.
func exaAlgo(cfg Config) namedAlgo {
	return namedAlgo{
		name: "EXA",
		run: func(ctx context.Context, m *costmodel.Model, tc workload.TestCase) (core.Result, error) {
			return core.EXAContext(ctx, m, tc.Weights, tc.Bounds, cfg.engine(tc.Objectives, 0))
		},
	}
}

// rtaAlgo builds an RTA comparator at the given precision.
func rtaAlgo(alpha float64, cfg Config) namedAlgo {
	return namedAlgo{
		name: fmt.Sprintf("RTA(%.4g)", alpha),
		run: func(ctx context.Context, m *costmodel.Model, tc workload.TestCase) (core.Result, error) {
			return core.RTAContext(ctx, m, tc.Weights, cfg.engine(tc.Objectives, alpha))
		},
	}
}

// iraAlgo builds an IRA comparator at the given precision.
func iraAlgo(alpha float64, cfg Config) namedAlgo {
	return namedAlgo{
		name: fmt.Sprintf("IRA(%.4g)", alpha),
		run: func(ctx context.Context, m *costmodel.Model, tc workload.TestCase) (core.Result, error) {
			return core.IRAContext(ctx, m, tc.Weights, tc.Bounds, cfg.engine(tc.Objectives, alpha))
		},
	}
}

// aggregate folds per-case runs into per-algorithm cells, computing the
// weighted-cost percentage against the best plan any algorithm produced
// for the same test case (the paper's W-Cost metric).
func aggregate(cells []Cell, perCase [][]caseRun) {
	for _, runs := range perCase {
		best := runs[0].wcost
		for _, r := range runs[1:] {
			if r.wcost < best {
				best = r.wcost
			}
		}
		for i, r := range runs {
			pct := 100.0
			if best > 0 {
				pct = 100 * r.wcost / best
			}
			cells[i].add(r.stats, pct, r.violations)
		}
	}
	for i := range cells {
		cells[i].finalize()
	}
}

// caseGen draws one test case of a (query, param) cell.
type caseGen func(param int, r *rand.Rand) workload.TestCase

// weightedCases is the test-case generator of Figures 5 and 9: param
// random objectives under uniform random weights.
func weightedCases(q *query.Query, _ *costmodel.Model) (caseGen, error) {
	return func(k int, r *rand.Rand) workload.TestCase { return workload.WeightedCase(q, k, r) }, nil
}

// figureRows runs one Figure 5/9/10 experiment: per (query, param) cell,
// CasesPerConfig seeded random test cases through every algorithm of the
// comparison, folded into one Row. newGen binds a cell's query and model
// into its generator (Figure 10 computes the per-query minima there).
func (c Config) figureRows(figure string, params []int, algs []namedAlgo,
	newGen func(*query.Query, *costmodel.Model) (caseGen, error)) ([]Row, error) {
	var rows []Row
	for _, qn := range c.queries() {
		for _, k := range params {
			// Each cell owns its model: a costmodel.Model memoizes the
			// estimates of one run at a time.
			q := workload.MustQuery(qn, c.catalog())
			m := costmodel.NewDefault(q)
			gen, err := newGen(q, m)
			if err != nil {
				return nil, err
			}
			r := c.newRNG(figure, qn, k)
			var perCase [][]caseRun
			for i := 0; i < c.CasesPerConfig; i++ {
				runs, err := c.runAlgorithms(gen(k, r), m, algs)
				if err != nil {
					return nil, err
				}
				perCase = append(perCase, runs)
			}
			cells := make([]Cell, len(algs))
			for i, a := range algs {
				cells[i].Algorithm = a.name
			}
			aggregate(cells, perCase)
			rows = append(rows, Row{QueryNum: qn, NumTables: q.NumRelations(), Param: k, Cells: cells})
		}
	}
	return rows, nil
}

// newRNG derives a deterministic RNG for one (figure, query, param) cell,
// so single figures can be regenerated in isolation with identical
// workloads.
func (c Config) newRNG(figure string, queryNum, param int) *rand.Rand {
	h := int64(0)
	for _, ch := range figure {
		h = h*131 + int64(ch)
	}
	return rand.New(rand.NewSource(c.Seed + h*1_000_003 + int64(queryNum)*1009 + int64(param)*13))
}

// catalogFor builds the TPC-H catalog for the run.
func (c Config) catalog() *catalog.Catalog { return catalog.TPCH(c.ScaleFactor) }

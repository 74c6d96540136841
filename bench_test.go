// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark wraps the corresponding harness function of
// internal/bench at a scaled-down configuration (short timeout, few test
// cases, representative query subset) so the full suite finishes in
// minutes; cmd/experiments regenerates the figures at configurable scale.
package moqo_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"moqo/internal/bench"
	"moqo/internal/catalog"
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// benchConfig is the scaled-down harness configuration for benchmarks.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.ScaleFactor = 1
	cfg.Timeout = time.Second
	cfg.CasesPerConfig = 2
	return cfg
}

// BenchmarkFigure1RunningExample measures the running-example analysis of
// Figures 1-2 (frontier filtering and weighted/bounded plan selection).
func BenchmarkFigure1RunningExample(b *testing.B) {
	e := bench.NewRunningExample()
	for i := 0; i < b.N; i++ {
		_ = e.ParetoFrontier()
		_ = e.WeightedOptimum()
		_ = e.BoundedOptimum()
	}
}

// BenchmarkFigure3PlanEvolution measures the three exact optimizations of
// the Figure 3 preference-evolution experiment on TPC-H Q3.
func BenchmarkFigure3PlanEvolution(b *testing.B) {
	cfg := benchConfig()
	cfg.Timeout = 10 * time.Second
	for i := 0; i < b.N; i++ {
		steps, err := bench.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(steps) != 3 {
			b.Fatal("unexpected step count")
		}
	}
}

// BenchmarkFigure4Frontier measures the RTA frontier computation of
// Figure 4 (TPC-H Q5, tuple loss x buffer x time) per precision.
func BenchmarkFigure4Frontier(b *testing.B) {
	for _, alpha := range []float64{2, 1.25} {
		b.Run(fmt.Sprintf("alpha=%.4g", alpha), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Timeout = 30 * time.Second
			for i := 0; i < b.N; i++ {
				res, err := bench.Figure4(cfg, alpha)
				if err != nil {
					b.Fatal(err)
				}
				if len(res[0].Points) == 0 {
					b.Fatal("empty frontier")
				}
			}
		})
	}
}

// BenchmarkFigure5EXA measures the exact algorithm per query size and
// objective count — the cost-explosion measurement of Figure 5.
func BenchmarkFigure5EXA(b *testing.B) {
	for _, qn := range []int{1, 12, 3, 10, 5} {
		for _, k := range []int{1, 3, 6, 9} {
			b.Run(fmt.Sprintf("q%d/objs=%d", qn, k), func(b *testing.B) {
				cfg := benchConfig()
				cfg.Queries = []int{qn}
				cfg.ObjectiveCounts = []int{k}
				cfg.CasesPerConfig = 1
				for i := 0; i < b.N; i++ {
					if _, err := bench.Figure5(cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure7Complexity measures the analytic complexity-curve
// evaluation of Figure 7.
func BenchmarkFigure7Complexity(b *testing.B) {
	p := bench.DefaultComplexityParams()
	for i := 0; i < b.N; i++ {
		if pts := bench.Figure7(p); len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure9WeightedMOQO measures one weighted-MOQO comparison cell
// (EXA vs RTA at three precisions) per representative query.
func BenchmarkFigure9WeightedMOQO(b *testing.B) {
	for _, qn := range []int{12, 3, 10} {
		b.Run(fmt.Sprintf("q%d", qn), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Queries = []int{qn}
			cfg.ObjectiveCounts = []int{6}
			cfg.CasesPerConfig = 1
			for i := 0; i < b.N; i++ {
				if _, err := bench.Figure9(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure10BoundedMOQO measures one bounded-MOQO comparison cell
// (EXA vs IRA at three precisions) per representative query.
func BenchmarkFigure10BoundedMOQO(b *testing.B) {
	for _, qn := range []int{12, 3} {
		b.Run(fmt.Sprintf("q%d", qn), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Queries = []int{qn}
			cfg.BoundCounts = []int{6}
			cfg.CasesPerConfig = 1
			for i := 0; i < b.N; i++ {
				if _, err := bench.Figure10(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithms measures the raw optimizer algorithms on TPC-H Q3
// with six objectives — the microbenchmark behind all figure measurements.
func BenchmarkAlgorithms(b *testing.B) {
	cat := benchCatalog()
	q := workload.MustQuery(3, cat)
	m := costmodel.NewDefault(q)
	objs := objective.NewSet(
		objective.TotalTime, objective.StartupTime, objective.IOLoad,
		objective.BufferFootprint, objective.Energy, objective.TupleLoss,
	)
	w := objective.UniformWeights(objs)
	opts := core.Options{Objectives: objs}
	// within runs one optimizer call under a deadline of d.
	within := func(d time.Duration, run func(ctx context.Context) (core.Result, error)) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		_, err := run(ctx)
		return err
	}

	b.Run("EXA", func(b *testing.B) {
		// The untimed exact run takes ~30s on this six-objective
		// instance (versus ~0.1s for RTA(1.15) — the paper's orders-of-
		// magnitude gap); cap it so the benchmark suite stays bounded.
		for i := 0; i < b.N; i++ {
			if err := within(10*time.Second, func(ctx context.Context) (core.Result, error) {
				return core.EXAContext(ctx, m, w, objective.NoBounds(), opts)
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, alpha := range []float64{1.15, 1.5, 2} {
		b.Run(fmt.Sprintf("RTA/alpha=%.4g", alpha), func(b *testing.B) {
			o := opts
			o.Alpha = alpha
			for i := 0; i < b.N; i++ {
				if err := within(30*time.Second, func(ctx context.Context) (core.Result, error) {
					return core.RTAContext(ctx, m, w, o)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Selinger", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := within(30*time.Second, func(ctx context.Context) (core.Result, error) {
				return core.SelingerContext(ctx, m, objective.TotalTime, opts)
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchCatalog() *catalog.Catalog { return catalog.TPCH(1) }

// BenchmarkParallelRTA measures the level-synchronized parallel engine on
// 10–14 relation synthetic queries: Workers=1 against Workers=NumCPU on
// the identical plan space. On a multi-core machine the parallel arm
// should approach a NumCPU-fold speedup on the larger queries (levels
// with many table sets shard evenly); on one core both arms coincide.
func BenchmarkParallelRTA(b *testing.B) {
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	w := objective.UniformWeights(objs)
	cases := []struct {
		shape  synthetic.Shape
		tables int
	}{
		{synthetic.Chain, 10},
		{synthetic.Chain, 12},
		{synthetic.Star, 12},
		{synthetic.Chain, 14},
	}
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, tc := range cases {
		_, q := synthetic.MustBuild(synthetic.Spec{
			Shape: tc.shape, Tables: tc.tables, MaxRows: 1e5, Seed: 1,
		})
		m := costmodel.NewDefault(q)
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("%s%d/workers=%d", tc.shape, tc.tables, workers), func(b *testing.B) {
				opts := core.Options{
					Objectives: objs,
					Alpha:      1.5,
					Workers:    workers,
				}
				for i := 0; i < b.N; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					res, err := core.RTAContext(ctx, m, w, opts)
					cancel()
					if err != nil {
						b.Fatal(err)
					}
					if res.Best == nil {
						b.Fatal("no plan")
					}
				}
			})
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// TestLevelClaimsOnceAscending drives runLevels with a recording treat and
// checks the claim cursor's contract: every memo id is treated exactly once,
// with its own set; every id of level k is below every id of level k+1, and
// level k+1 starts only after every set of level k is treated; and each
// worker's claims strictly ascend.
func TestLevelClaimsOnceAscending(t *testing.T) {
	for _, tc := range []struct {
		shape  synthetic.Shape
		tables int
	}{{synthetic.Chain, 12}, {synthetic.Clique, 8}} {
		q := buildShape(t, tc.shape, tc.tables, 1)
		for _, workers := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%s-%d/workers=%d", tc.shape, tc.tables, workers)
			opts, err := Options{Objectives: threeObjs, Workers: workers}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			e := newEngine(context.Background(), costmodel.NewDefault(q), opts,
				exactPrecision, objective.UniformWeights(threeObjs))
			var sets []query.TableSet
			var levelOf []int
			for k, level := range e.enum.levels {
				for _, s := range level {
					sets = append(sets, s)
					levelOf = append(levelOf, k)
				}
			}
			// Per id: times treated, and the clock readings around its treat;
			// per worker: the ids it claimed, appended by that worker alone.
			treated := make([]atomic.Int32, len(sets))
			began := make([]int64, len(sets))
			ended := make([]int64, len(sets))
			var clock atomic.Int64
			claims := make([][]int32, workers)
			e.runLevels(func(w *worker, id int32, s query.TableSet) {
				if treated[id].Add(1) != 1 {
					return
				}
				began[id] = clock.Add(1)
				if s != sets[id] {
					t.Errorf("%s: id %d treated as set %v, want %v", label, id, s, sets[id])
				}
				for wi := range e.workers {
					if &e.workers[wi] == w {
						claims[wi] = append(claims[wi], id)
					}
				}
				ended[id] = clock.Add(1)
			})
			for id := range treated {
				if n := treated[id].Load(); n != 1 {
					t.Fatalf("%s: id %d treated %d times", label, id, n)
				}
			}
			for id := 1; id < len(sets); id++ {
				if levelOf[id] < levelOf[id-1] {
					t.Fatalf("%s: id %d is on level %d, below id %d's level %d", label, id, levelOf[id], id-1, levelOf[id-1])
				}
			}
			for a := range sets {
				for b := range sets {
					if levelOf[a] < levelOf[b] && ended[a] > began[b] {
						t.Fatalf("%s: id %d (level %d) began before id %d (level %d) ended", label, b, levelOf[b], a, levelOf[a])
					}
				}
			}
			for wi, ids := range claims {
				for i := 1; i < len(ids); i++ {
					if ids[i] <= ids[i-1] {
						t.Fatalf("%s: worker %d claimed id %d after id %d", label, wi, ids[i], ids[i-1])
					}
				}
			}
		}
	}
}

// invarianceShapes exercises the three split enumerations the adaptive
// strategy routes between: tree-shaped sets (chain, star, random tree),
// mid-density cycle sets, and dense clique sets.
var invarianceShapes = []struct {
	shape  synthetic.Shape
	tables int
}{
	{synthetic.Chain, 9},
	{synthetic.Star, 7},
	{synthetic.Cycle, 8},
	{synthetic.Clique, 6},
	{synthetic.RandomTree, 9},
}

// TestScheduleInvariance is the scheduler's differential gate: runs with
// Workers 2, 4 and 8 must be bit-identical to the serial run — same
// canonical frontier, same best plan, and same Stats counters (EnumSets,
// EnumSplits, Considered, Stored). Under -race this also exercises the
// persistent pool's wake, claim, and park transitions for data races,
// forced on (forcePool) for TPC-H q3 and q10, whose runs are below the
// sequential cutoff and whose levels are narrower than the pool.
func TestScheduleInvariance(t *testing.T) {
	forcePool(t)
	w := objective.UniformWeights(threeObjs)
	var queries []*query.Query
	for _, tc := range invarianceShapes {
		queries = append(queries, buildShape(t, tc.shape, tc.tables, 3))
	}
	cat := catalog.TPCH(1)
	queries = append(queries, workload.MustQuery(3, cat), workload.MustQuery(10, cat))
	for _, q := range queries {
		m := costmodel.NewDefault(q)
		opts := Options{Objectives: threeObjs, Alpha: 1.5, MaxDOP: 2, Workers: 1}
		base, err := RTA(m, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		baseJSON, err := base.Best.JSON(q, threeObjs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			opts.Workers = workers
			got, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/workers=%d", q.Name, workers)
			sameFrontier(t, label, got.Frontier, base.Frontier)
			gotJSON, err := got.Best.JSON(q, threeObjs)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(baseJSON) {
				t.Errorf("%s: best plan differs from serial run:\n%s\nvs\n%s", label, gotJSON, baseJSON)
			}
			if got.Stats.EnumSets != base.Stats.EnumSets || got.Stats.EnumSplits != base.Stats.EnumSplits {
				t.Errorf("%s: EnumSets/EnumSplits %d/%d vs serial %d/%d",
					label, got.Stats.EnumSets, got.Stats.EnumSplits, base.Stats.EnumSets, base.Stats.EnumSplits)
			}
			if got.Stats.Considered != base.Stats.Considered || got.Stats.Stored != base.Stats.Stored {
				t.Errorf("%s: Considered/Stored %d/%d vs serial %d/%d",
					label, got.Stats.Considered, got.Stats.Stored, base.Stats.Considered, base.Stats.Stored)
			}
		}
	}
}

// TestPoolSpawnsOncePerRun pins the scheduler fix: a parallel run spawns
// exactly Workers-1 goroutines total, not Workers per cardinality level.
func TestPoolSpawnsOncePerRun(t *testing.T) {
	q := buildShape(t, synthetic.Chain, 12, 1)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	const workers = 4
	before := poolSpawned.Load()
	if _, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if got := poolSpawned.Load() - before; got != workers-1 {
		t.Fatalf("run spawned %d worker goroutines, want %d (once per run, not per level)", got, workers-1)
	}
}

// forcePool lifts the sequential cutoff (poolForced) for the rest of t, so a
// small run still goes through the pool, capped at its widest level.
func forcePool(t testing.TB) {
	poolForced = true
	t.Cleanup(func() { poolForced = false })
}

// TestSmallRunStaysSequential: a run whose PredictCost is below
// sequentialBelow takes one worker whatever Workers asks — it spawns no pool
// goroutine and allocates exactly what Workers=1 does — under RTA's term, and
// under EXA's for EXA and the keep-best programs (Selinger, the weighted
// sum). q5 under RTA and q10 under EXA, above the cutoff, do spawn; q10
// under RTA, eight times cheaper than under EXA, does not.
func TestSmallRunStaysSequential(t *testing.T) {
	cat := catalog.TPCH(1)
	q3, q5, q10 := workload.MustQuery(3, cat), workload.MustQuery(5, cat), workload.MustQuery(10, cat)
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	w := objective.UniformWeights(objs)
	runs := []struct {
		name string
		run  func(workers int) (Result, error)
	}{
		{"tpch-q3/RTA1.5", func(n int) (Result, error) {
			return RTA(costmodel.NewDefault(q3), w, Options{Objectives: objs, Alpha: 1.5, Workers: n})
		}},
		{"tpch-q10/RTA1.5", func(n int) (Result, error) {
			return RTA(costmodel.NewDefault(q10), w, Options{Objectives: objs, Alpha: 1.5, Workers: n})
		}},
		{"tpch-q3/EXA", func(n int) (Result, error) {
			return EXA(costmodel.NewDefault(q3), w, objective.NoBounds(), Options{Objectives: objs, Workers: n})
		}},
		{"tpch-q3/WeightedSum", func(n int) (Result, error) {
			return WeightedSumDP(costmodel.NewDefault(q3), w, Options{Objectives: objs, Workers: n})
		}},
		{"tpch-q10/Selinger", func(n int) (Result, error) {
			return Selinger(costmodel.NewDefault(q10), objective.TotalTime, Options{Workers: n})
		}},
	}
	for _, r := range runs {
		// The least of three counts: the malloc counter is process-wide, and
		// now and then the runtime allocates beside a run.
		allocs := func(workers int) float64 {
			least := math.Inf(1)
			for range 3 {
				least = min(least, testing.AllocsPerRun(3, func() {
					if _, err := r.run(workers); err != nil {
						t.Fatal(err)
					}
				}))
			}
			return least
		}
		base := allocs(1)
		for _, workers := range []int{2, 8, 64} {
			before := poolSpawned.Load()
			got := allocs(workers)
			if spawned := poolSpawned.Load() - before; spawned != 0 {
				t.Errorf("%s/workers=%d: spawned %d pool goroutines, want none", r.name, workers, spawned)
			}
			if got != base {
				t.Errorf("%s/workers=%d: %v allocations per run, Workers=1 makes %v", r.name, workers, got, base)
			}
		}
	}
	for _, r := range []struct {
		name, algorithm string
		q               *query.Query
		run             func() (Result, error)
	}{
		{"tpch-q5/RTA1.5", "rta", q5, func() (Result, error) {
			return RTA(costmodel.NewDefault(q5), w, Options{Objectives: objs, Alpha: 1.5, Workers: 2})
		}},
		{"tpch-q10/EXA", "exa", q10, func() (Result, error) {
			return EXA(costmodel.NewDefault(q10), w, objective.NoBounds(), Options{Objectives: objs, Workers: 2})
		}},
	} {
		before := poolSpawned.Load()
		if _, err := r.run(); err != nil {
			t.Fatal(err)
		}
		if spawned := poolSpawned.Load() - before; spawned != 1 {
			t.Errorf("%s/workers=2 (PredictCost %v): spawned %d pool goroutines, want 1",
				r.name, PredictCost(r.q.NumRelations(), objs.Len(), r.algorithm), spawned)
		}
	}
}

// TestWorkersCappedAtWidestLevel: a pooled run never has more workers than
// its widest level has sets, since no more can claim one. TPC-H q3's widest
// level is its three base tables, so at Workers=64 it spawns two goroutines
// and allocates what Workers=3 does, not 64 workers' scratch and arenas.
func TestWorkersCappedAtWidestLevel(t *testing.T) {
	forcePool(t)
	q := workload.MustQuery(3, catalog.TPCH(1))
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	run := func(workers int) {
		if _, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	bytesPerRun := func(workers int) uint64 {
		run(workers)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run(workers)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	before := poolSpawned.Load()
	run(64)
	if spawned := poolSpawned.Load() - before; spawned != 2 {
		t.Errorf("Workers=64 spawned %d pool goroutines, want 2 (the widest level has 3 sets)", spawned)
	}
	capped, three := bytesPerRun(64), bytesPerRun(3)
	t.Logf("bytes per run: Workers=64 %d, Workers=3 %d", capped, three)
	if float64(capped) > 1.1*float64(three) {
		t.Errorf("Workers=64 allocates %d bytes per run, Workers=3 %d", capped, three)
	}
}

// BenchmarkSchedulerChurn is the goroutine-churn regression benchmark on a
// 20-table chain: spawns/op must stay at Workers-1 (the old per-level
// barrier spawned ~Workers per level, i.e. ~20x more) and allocs/op must
// not regress toward per-level WaitGroup/closure garbage.
func BenchmarkSchedulerChurn(b *testing.B) {
	_, q := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 20, MaxRows: 1e5, Seed: 1})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.5, Workers: 4}
	if _, err := RTA(m, w, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	before := poolSpawned.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RTA(m, w, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(poolSpawned.Load()-before)/float64(b.N), "spawns/op")
}

// BenchmarkPoolCutoff sizes sequentialBelow: for each instance of the
// scoreboard's cold list (benchmark/cold.go; its two IRA instances left out,
// since each of their iterations sizes its own pool), and for Selinger (one
// objective) and the weighted sum (three) on TPC-H and synthetic shapes up to
// a 9-table clique, it times one run at Workers=1 and one at Workers=2 with
// the pool forced on, alternately, and reports both and their ratio beside
// the run's PredictCost under the term poolSize prices it with (EXA's for
// the keep-best programs, which run at exact precision). Run it
// with -benchtime 3s on the cores to be judged; a ratio above 1 below the
// cutoff, or below 1 above it, argues for moving it.
func BenchmarkPoolCutoff(b *testing.B) {
	forcePool(b)
	cat := catalog.TPCH(1)
	tpch := func(n int) *query.Query { return workload.MustQuery(n, cat) }
	synth := func(shape synthetic.Shape, tables int) *query.Query {
		_, q := synthetic.MustBuild(synthetic.Spec{Shape: shape, Tables: tables, Seed: 7})
		return q
	}
	objs1 := objective.NewSet(objective.TotalTime)
	objs2 := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	objs3 := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	objs6 := objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
		objective.CPULoad, objective.BufferFootprint, objective.Energy)
	objs9 := objective.AllSet()
	// alpha: 0 for EXA, -1 for the keep-best program (Selinger at one
	// objective, the weighted sum at more), else RTA's α.
	type instance struct {
		q     *query.Query
		objs  objective.Set
		alpha float64
	}
	var list []instance
	for _, q := range []*query.Query{tpch(2), tpch(3), tpch(10), tpch(21), synth(synthetic.Chain, 8)} {
		objs := objs3
		if q.NumRelations() == 8 {
			objs = objs2
		}
		for _, alpha := range []float64{1.2, 1.5, 2} {
			list = append(list, instance{q, objs, alpha})
		}
	}
	list = append(list,
		instance{tpch(2), objs3, 0}, instance{tpch(10), objs3, 0}, instance{tpch(7), objs3, 0},
		instance{tpch(5), objs3, 1.5}, instance{tpch(8), objs3, 1.5}, instance{tpch(7), objs6, 1.5},
		instance{tpch(9), objs6, 1.5}, instance{tpch(5), objs6, 2}, instance{tpch(10), objs9, 1.5},
		instance{tpch(2), objs9, 2}, instance{tpch(21), objs9, 1.5}, instance{synth(synthetic.Chain, 12), objs3, 1.5},
		instance{synth(synthetic.Cycle, 10), objs2, 0}, instance{synth(synthetic.Star, 8), objs3, 1.5})
	for _, q := range []*query.Query{tpch(3), tpch(10), tpch(2), tpch(5), tpch(7), tpch(8), tpch(9),
		synth(synthetic.Chain, 8), synth(synthetic.Chain, 12), synth(synthetic.Star, 8), synth(synthetic.Cycle, 10),
		synth(synthetic.Clique, 7), synth(synthetic.Clique, 8), synth(synthetic.Clique, 9)} {
		list = append(list, instance{q, objs1, -1}, instance{q, objs3, -1})
	}
	for _, in := range list {
		alg, name := "exa", fmt.Sprintf("%s/EXA/%dobj", in.q.Name, in.objs.Len())
		switch {
		case in.alpha < 0:
			name = fmt.Sprintf("%s/KeepBest/%dobj", in.q.Name, in.objs.Len())
		case in.alpha > 0:
			alg, name = "rta", fmt.Sprintf("%s/RTA%g/%dobj", in.q.Name, in.alpha, in.objs.Len())
		}
		m := costmodel.NewDefault(in.q)
		w := objective.UniformWeights(in.objs)
		run := func(workers int) time.Duration {
			start := time.Now()
			var err error
			opts := Options{Objectives: in.objs, Alpha: max(1, in.alpha), Workers: workers}
			switch {
			case in.alpha < 0:
				_, err = WeightedSumDP(m, w, opts)
			case in.alpha > 0:
				_, err = RTA(m, w, opts)
			default:
				_, err = EXA(m, w, objective.NoBounds(), opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		b.Run(name, func(b *testing.B) {
			run(1)
			run(2)
			var one, two time.Duration
			for i := range b.N {
				if i%2 == 0 {
					one += run(1)
					two += run(2)
				} else {
					two += run(2)
					one += run(1)
				}
			}
			b.ReportMetric(PredictCost(in.q.NumRelations(), in.objs.Len(), alg), "predict")
			b.ReportMetric(float64(one.Microseconds())/float64(b.N), "w1-us")
			b.ReportMetric(float64(two.Microseconds())/float64(b.N), "w2-us")
			b.ReportMetric(float64(one)/float64(two), "speedup")
		})
	}
}

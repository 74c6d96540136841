package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
)

// TestLevelClaimsOnceAscending drives runLevels with a recording treat and
// checks the claim cursor's contract: every memo id is treated exactly once,
// with its own set; every id of level k is below every id of level k+1, and
// level k+1 starts only after every set of level k is treated; and each
// worker's ids strictly ascend, which worker.markDone's plain assignment
// relies on.
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
// persistent pool's wake, claim, and park transitions for data races.
func TestScheduleInvariance(t *testing.T) {
	w := objective.UniformWeights(threeObjs)
	for _, tc := range invarianceShapes {
		q := buildShape(t, tc.shape, tc.tables, 3)
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
			label := fmt.Sprintf("%s/workers=%d", tc.shape, workers)
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

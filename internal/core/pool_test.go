package core

import (
	"fmt"
	"sync"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// TestDequeClaimsEachIndexOnce hammers one deque from an owner (popFront)
// and several thieves (popBack) and checks every index is claimed exactly
// once — the work-stealing scheduler's single invariant.
func TestDequeClaimsEachIndexOnce(t *testing.T) {
	const n = 10000
	var d deque
	d.reset(0, n)
	var claimed [n]int32
	var wg sync.WaitGroup
	grab := func(pop func() int32) {
		defer wg.Done()
		for {
			i := pop()
			if i < 0 {
				return
			}
			claimed[i]++
		}
	}
	wg.Add(4)
	go grab(d.popFront)
	for i := 0; i < 3; i++ {
		go grab(d.popBack)
	}
	wg.Wait()
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
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

// TestScheduleInvariance is the work-stealing scheduler's differential
// gate: runs with Workers 2, 4 and 8 must be bit-identical to the serial
// run — same canonical frontier, same best plan, and same Stats counters
// (EnumSets, EnumSplits, Considered, Stored). Under -race this also
// exercises the persistent pool's wake, steal, and park transitions for
// data races.
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

package core

import (
	"fmt"
	"math"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// hotpath_test.go certifies the allocation-free engine against the
// preserved pre-refactor implementation (reference.go) and pins down the
// determinism of extracted frontiers across worker counts.

// TestEngineMatchesReference: the flat engine must reproduce the
// tree-allocating reference engine's results exactly — same candidate
// count, same frontier cost vectors in the same canonical order, same
// frontier counters, same selected plan — for both exact (EXA) and
// approximate (RTA) pruning, on every synthetic topology and two TPC-H
// queries. The reference splits each set by its own subset loop, so this
// holds every candidate loop the engine dispatches to against the
// definition end to end. The TPC-H queries run on two objectives: the
// tree-allocating reference takes seconds per run on three.
func TestEngineMatchesReference(t *testing.T) {
	type instance struct {
		name string
		q    *query.Query
		objs objective.Set
	}
	var cases []instance
	for _, shape := range []synthetic.Shape{synthetic.Chain, synthetic.Star, synthetic.Clique, synthetic.Cycle, synthetic.RandomTree} {
		_, q := synthetic.MustBuild(synthetic.Spec{Shape: shape, Tables: 6, MaxRows: 1e4, Seed: 11})
		cases = append(cases, instance{shape.String(), q, threeObjs})
	}
	cat := catalog.TPCH(1)
	for _, num := range []int{5, 8} {
		cases = append(cases, instance{fmt.Sprintf("tpch-q%d", num), workload.MustQuery(num, cat), timeLoss})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := costmodel.NewDefault(c.q)
			w := objective.UniformWeights(c.objs)
			opts := Options{Objectives: c.objs, MaxDOP: 2}

			exa, err := EXA(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			refEXA, err := ReferenceEXA(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "EXA", exa, refEXA)

			rtaOpts := opts
			rtaOpts.Alpha = 1.5
			rta, err := RTA(m, w, rtaOpts)
			if err != nil {
				t.Fatal(err)
			}
			refRTA, err := ReferenceRTA(m, w, rtaOpts)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, "RTA", rta, refRTA)
		})
	}
}

// compareRuns holds a run against the reference run: counters, the selected
// plan's cost and every frontier vector, the floats by their IEEE bits — the
// engines promise bit-identity, and == would both let a -0 for a +0 pass and
// fail a NaN against itself (TestOverflowMatchesReference compares NaNs).
func compareRuns(t *testing.T, name string, got, want Result) {
	t.Helper()
	sameBits := func(a, b objective.Vector) bool {
		for o := range a {
			if math.Float64bits(a[o]) != math.Float64bits(b[o]) {
				return false
			}
		}
		return true
	}
	if got.Stats.Considered != want.Stats.Considered {
		t.Errorf("%s considered %d != reference %d", name, got.Stats.Considered, want.Stats.Considered)
	}
	if got.Stats.Stored != want.Stats.Stored {
		t.Errorf("%s stored %d != reference %d", name, got.Stats.Stored, want.Stats.Stored)
	}
	if !sameBits(got.Best.Cost, want.Best.Cost) {
		t.Errorf("%s best cost %v != reference %v", name, got.Best.Cost, want.Best.Cost)
	}
	gi, gr, ge := got.Frontier.Stats()
	wi, wr, we := want.Frontier.Stats()
	if gi != wi || gr != wr || ge != we {
		t.Errorf("%s frontier counters (ins=%d rej=%d ev=%d) != reference (ins=%d rej=%d ev=%d)", name, gi, gr, ge, wi, wr, we)
	}
	gf, wf := got.Frontier.Frontier(), want.Frontier.Frontier()
	if len(gf) != len(wf) {
		t.Fatalf("%s frontier size %d != reference %d", name, len(gf), len(wf))
	}
	for i := range gf {
		if !sameBits(gf[i], wf[i]) {
			t.Errorf("%s frontier[%d] %v != reference %v", name, i, gf[i], wf[i])
		}
	}
}

// TestMaterializedPlansValid: materialized frontier plans must be
// structurally valid trees covering the full query — including plans with
// index-nested-loop joins and sampling scans, whose entries carry
// synthetic operands and rate codes.
func TestMaterializedPlansValid(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Star, Tables: 6, MaxRows: 1e5, Seed: 4,
	})
	m := costmodel.NewDefault(q)
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.TupleLoss)
	res, err := EXA(m, objective.UniformWeights(objs), objective.NoBounds(), Options{Objectives: objs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier.Plans()) == 0 {
		t.Fatal("empty frontier")
	}
	for _, p := range res.Frontier.Plans() {
		if p.Tables != q.AllTables() {
			t.Errorf("frontier plan covers %v, want all tables", p.Tables)
		}
		if err := p.Validate(q); err != nil {
			t.Errorf("invalid materialized plan: %v", err)
		}
	}
}

// TestFrontierDeterministicAcrossWorkers: the extracted Result must be
// identical — best plan signature, canonical frontier order, and all
// counters — for Workers ∈ {1, 4, 8}, on every algorithm that extracts a
// frontier.
func TestFrontierDeterministicAcrossWorkers(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 7, MaxRows: 1e5, Seed: 9,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	b := objective.NoBounds().With(objective.TotalTime, 1e7)

	type runner struct {
		name string
		run  func(workers int) (Result, error)
	}
	runners := []runner{
		{"EXA", func(workers int) (Result, error) {
			return EXA(m, w, objective.NoBounds(), Options{Objectives: threeObjs, Workers: workers})
		}},
		{"RTA", func(workers int) (Result, error) {
			return RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.4, Workers: workers})
		}},
		{"IRA", func(workers int) (Result, error) {
			return IRA(m, w, b, Options{Objectives: threeObjs, Alpha: 1.4, Workers: workers})
		}},
	}
	for _, rn := range runners {
		t.Run(rn.name, func(t *testing.T) {
			base, err := rn.run(1)
			if err != nil {
				t.Fatal(err)
			}
			baseSig := base.Best.Signature(q)
			baseFrontier := frontierSignature(t, base, threeObjs)
			for _, workers := range []int{4, 8} {
				res, err := rn.run(workers)
				if err != nil {
					t.Fatal(err)
				}
				if sig := res.Best.Signature(q); sig != baseSig {
					t.Errorf("workers=%d best plan %s != workers=1 %s", workers, sig, baseSig)
				}
				if fs := frontierSignature(t, res, threeObjs); fs != baseFrontier {
					t.Errorf("workers=%d frontier differs:\n%s\nvs workers=1:\n%s", workers, fs, baseFrontier)
				}
				if res.Stats.Considered != base.Stats.Considered {
					t.Errorf("workers=%d considered %d != workers=1 %d", workers, res.Stats.Considered, base.Stats.Considered)
				}
				if res.Stats.Stored != base.Stats.Stored {
					t.Errorf("workers=%d stored %d != workers=1 %d", workers, res.Stats.Stored, base.Stats.Stored)
				}
			}
		})
	}
}

// benchQuery builds the benchmark query once per size.
func benchQuery(b *testing.B, tables int) *costmodel.Model {
	b.Helper()
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: tables, MaxRows: 1e5, Seed: 1,
	})
	return costmodel.NewDefault(q)
}

// BenchmarkEXA measures the end-to-end exact dynamic program on the flat
// engine; run with -benchmem to see per-run allocation totals.
func BenchmarkEXA(b *testing.B) {
	for _, tables := range []int{6, 8} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			m := benchQuery(b, tables)
			w := objective.UniformWeights(threeObjs)
			opts := Options{Objectives: threeObjs}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EXA(m, w, objective.NoBounds(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestColdRunAllocsPerWorker gates the cold path's allocation count against
// growing with Options.Workers: everything a worker needs per run lives in
// its fixed-size scratch, so an extra worker may cost only what the pool
// itself allocates for it. The run is on a clique, where every set takes
// the subset scan, which needs no growable scratch (the traversal and
// edge-cut loops buffer their splits in a per-worker slice).
func TestColdRunAllocsPerWorker(t *testing.T) {
	// levelPool.start: the wake-channel slice once per run (the pool is a
	// field of the engine, and a level claims its sets from one cursor); one
	// wake channel and one goroutine closure per spawned worker, and now and
	// then the sudog it parks on (a GC empties the runtime's sudog cache). A
	// per-worker buffer grown by append to the twelve (operator, DOP) terms
	// of a split would cost five more each.
	const poolAllocs, poolAllocsPerWorker = 1, 3

	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Clique, Tables: 8, MaxRows: 1e5, Seed: 1,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	allocs := func(workers int) float64 {
		opts := Options{Objectives: threeObjs, Alpha: 2, Workers: workers}
		return testing.AllocsPerRun(3, func() {
			if _, err := RTA(m, w, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(1)
	for _, workers := range []int{2, 4, 8} {
		budget := float64(poolAllocs + poolAllocsPerWorker*(workers-1))
		extra := allocs(workers) - base
		t.Logf("Workers=%d: %v allocations more than Workers=1 (%v), budget %v", workers, extra, base, budget)
		if extra > budget {
			t.Errorf("Workers=%d allocates %v more than Workers=1 (%v); the pool accounts for %v",
				workers, extra, base, budget)
		}
	}
}

// TestColdRunAllocs gates a cold run's allocation count against growing
// with the plans it stores: every archive a worker fills lives in the
// worker's arena and every archive header in the memo's slab, so a larger
// query adds only what grows with the logarithm of its size — the
// enumeration's one slice of sets, a worker's buffer of splits, and the
// arena chunks past the first. An 8- and a 12-table chain, the second
// storing more than three times the plans of the first, may differ by
// coldRunGrowth allocations. When every archive header was an allocation
// of its own and every archive grew by append doubling, they differed by
// 576 (458 against 1 034).
func TestColdRunAllocs(t *testing.T) {
	const coldRunGrowth = 6
	allocs := func(tables int) (float64, int) {
		_, q := synthetic.MustBuild(synthetic.Spec{
			Shape: synthetic.Chain, Tables: tables, MaxRows: 1e5, Seed: 1,
		})
		m := costmodel.NewDefault(q)
		w := objective.UniformWeights(threeObjs)
		opts := Options{Objectives: threeObjs, Alpha: 1.5, Workers: 1}
		var stored int
		n := testing.AllocsPerRun(5, func() {
			res, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			stored = res.Stats.Stored
		})
		return n, stored
	}
	small, smallStored := allocs(8)
	large, largeStored := allocs(12)
	t.Logf("chain-8: %v allocations, %d plans stored; chain-12: %v allocations, %d plans stored", small, smallStored, large, largeStored)
	if largeStored < 3*smallStored {
		t.Fatalf("chain-12 stores %d plans, chain-8 %d: the comparison needs the larger run to store more", largeStored, smallStored)
	}
	if large-small > coldRunGrowth {
		t.Errorf("chain-12 allocates %v, chain-8 %v: the run grew by %v allocations, more than %d", large, small, large-small, coldRunGrowth)
	}
}

// BenchmarkReferenceEXA is the pre-refactor arm of BenchmarkEXA: the same
// dynamic program with per-candidate *plan.Node allocation and the
// pointer-backed legacy archives.
func BenchmarkReferenceEXA(b *testing.B) {
	for _, tables := range []int{6, 8} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			m := benchQuery(b, tables)
			w := objective.UniformWeights(threeObjs)
			opts := Options{Objectives: threeObjs}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReferenceEXA(m, w, objective.NoBounds(), opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

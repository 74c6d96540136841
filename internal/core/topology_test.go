package core

import (
	"testing"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
)

// differentialShapes are the topologies the graph-aware enumeration is
// pinned against the exhaustive scan on, at sizes where the exhaustive
// arm is still cheap.
var differentialShapes = []struct {
	shape  synthetic.Shape
	tables int
}{
	{synthetic.Chain, 7},
	{synthetic.Star, 6},
	{synthetic.Cycle, 7},
	{synthetic.Clique, 5},
	{synthetic.RandomTree, 7},
}

// buildShape materializes one synthetic query.
func buildShape(t testing.TB, shape synthetic.Shape, n int, seed int64) *query.Query {
	t.Helper()
	_, q, err := synthetic.Build(synthetic.Spec{Shape: shape, Tables: n, MaxRows: 1e5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameFrontier asserts two canonically sorted frontiers carry identical
// cost vectors.
func sameFrontier(t *testing.T, label string, a, b *Frontier) {
	t.Helper()
	pa, pb := a.Plans(), b.Plans()
	if len(pa) != len(pb) {
		t.Fatalf("%s: frontier sizes differ: %d vs %d", label, len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Cost != pb[i].Cost {
			t.Fatalf("%s: frontier[%d] cost vectors differ:\n  %v\n  %v", label, i, pa[i].Cost, pb[i].Cost)
		}
	}
}

// TestEnumerateGraphMatchesExhaustiveLevels: on connected graphs both
// strategies must materialize identical levels (same sets, same order,
// hence same dense ids), while the graph-aware traversal scans only the
// sets it keeps.
func TestEnumerateGraphMatchesExhaustiveLevels(t *testing.T) {
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 3; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			ex := enumerate(q, EnumExhaustive, nil)
			gr := enumerate(q, EnumGraph, nil)
			if !gr.graphAware || ex.graphAware {
				t.Fatalf("%s: strategies resolved to graphAware=%v/%v", tc.shape, gr.graphAware, ex.graphAware)
			}
			if gr.total != ex.total {
				t.Fatalf("%s-%d: totals differ: %d vs %d", tc.shape, tc.tables, gr.total, ex.total)
			}
			for k := 1; k <= ex.n; k++ {
				if len(gr.levels[k]) != len(ex.levels[k]) {
					t.Fatalf("%s-%d level %d: %d vs %d sets", tc.shape, tc.tables, k, len(gr.levels[k]), len(ex.levels[k]))
				}
				for i := range ex.levels[k] {
					if gr.levels[k][i] != ex.levels[k][i] {
						t.Fatalf("%s-%d level %d[%d]: %v vs %v (order must be Gosper-identical)",
							tc.shape, tc.tables, k, i, gr.levels[k][i], ex.levels[k][i])
					}
				}
			}
			if gr.scanned != gr.total {
				t.Errorf("%s-%d: graph traversal scanned %d sets, materialized %d — must touch only what it keeps",
					tc.shape, tc.tables, gr.scanned, gr.total)
			}
			if ex.scanned != (1<<uint(ex.n))-1 {
				t.Errorf("%s-%d: exhaustive scan visited %d sets, want 2^n-1 = %d",
					tc.shape, tc.tables, ex.scanned, (1<<uint(ex.n))-1)
			}
		}
	}
}

// TestEnumerateGraphFallsBackWhenDisconnected: an explicitly requested
// graph strategy must fall back to the exhaustive scan on a disconnected
// join graph — Cartesian products are unavoidable there and every subset
// has to be treated.
func TestEnumerateGraphFallsBackWhenDisconnected(t *testing.T) {
	q := disconnectedQuery(t)
	e := enumerate(q, EnumGraph, nil)
	if e.graphAware {
		t.Fatal("graph strategy did not fall back on a disconnected join graph")
	}
	if want := 1<<3 - 1; e.total != want {
		t.Fatalf("fallback enumerated %d sets, want %d (all non-empty subsets)", e.total, want)
	}
}

// TestGraphEnumerationMatchesExhaustiveEXA is the differential proof of
// the acceptance criterion: on random chain, star, cycle, clique and
// tree graphs the graph-aware and exhaustive strategies produce
// identical exact Pareto frontiers (canonical order), identical
// candidate and stored counts — while the graph-aware arm scans strictly
// fewer split pairs on every non-clique topology.
func TestGraphEnumerationMatchesExhaustiveEXA(t *testing.T) {
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.TupleLoss)
	w := objective.UniformWeights(objs)
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 3; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			m := costmodel.NewDefault(q)

			opts := Options{Objectives: objs, MaxDOP: 2, Enumeration: EnumExhaustive}
			ex, err := EXA(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Enumeration = EnumGraph
			gr, err := EXA(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}

			label := tc.shape.String()
			sameFrontier(t, label, gr.Frontier, ex.Frontier)
			if gr.Stats.Considered != ex.Stats.Considered {
				t.Errorf("%s seed %d: considered %d (graph) vs %d (exhaustive) — candidate sets must match",
					label, seed, gr.Stats.Considered, ex.Stats.Considered)
			}
			if gr.Stats.Stored != ex.Stats.Stored {
				t.Errorf("%s seed %d: stored %d vs %d", label, seed, gr.Stats.Stored, ex.Stats.Stored)
			}
			if gr.Best.Cost != ex.Best.Cost {
				t.Errorf("%s seed %d: best plan costs differ", label, seed)
			}
			if gr.Stats.EnumSplits > ex.Stats.EnumSplits {
				t.Errorf("%s seed %d: graph strategy scanned MORE splits (%d) than exhaustive (%d)",
					label, seed, gr.Stats.EnumSplits, ex.Stats.EnumSplits)
			}
			if tc.shape != synthetic.Clique && gr.Stats.EnumSplits >= ex.Stats.EnumSplits {
				t.Errorf("%s seed %d: expected a strict split-scan reduction, got %d vs %d",
					label, seed, gr.Stats.EnumSplits, ex.Stats.EnumSplits)
			}
		}
	}
}

// TestGraphEnumerationMatchesExhaustiveRTA: approximately pruned
// archives depend on candidate insertion order, so this pins the
// stronger property the graph-aware loop provides by emitting its
// splits in the exhaustive scan's canonical order — RTA results are
// bit-for-bit identical across strategies, representatives included.
// (That order-equivalence is also why the plan cache key can ignore
// the enumeration knob, like Workers.)
func TestGraphEnumerationMatchesExhaustiveRTA(t *testing.T) {
	w := objective.UniformWeights(threeObjs)
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 2; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			m := costmodel.NewDefault(q)
			opts := Options{Objectives: threeObjs, MaxDOP: 2, Alpha: 1.5, Enumeration: EnumExhaustive}
			ex, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Enumeration = EnumGraph
			gr, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := tc.shape.String()
			sameFrontier(t, label, gr.Frontier, ex.Frontier)
			if gr.Best.Cost != ex.Best.Cost {
				t.Errorf("%s seed %d: RTA best plans differ", label, seed)
			}
			if gr.Stats.Considered != ex.Stats.Considered || gr.Stats.Stored != ex.Stats.Stored {
				t.Errorf("%s seed %d: RTA considered/stored %d/%d vs %d/%d — candidate order must match",
					label, seed, gr.Stats.Considered, gr.Stats.Stored, ex.Stats.Considered, ex.Stats.Stored)
			}
			gi, grj, gev := gr.Frontier.Stats()
			ei, erj, eev := ex.Frontier.Stats()
			if gi != ei || grj != erj || gev != eev {
				t.Errorf("%s seed %d: archive counters (ins=%d rej=%d ev=%d) vs (ins=%d rej=%d ev=%d)",
					label, seed, gi, grj, gev, ei, erj, eev)
			}
		}
	}
}

// TestAutoEnumerationMatchesExhaustive pins the density-adaptive strategy
// (EnumAuto: per-set scan vs edge-cut vs traversal) bit-for-bit against
// the exhaustive scan under approximate pruning — the most order-sensitive
// setting, since RTA archives depend on candidate insertion order. The
// heuristic may only change the scanning work (EnumSplits), never the
// candidates: frontiers, representatives, archive counters and
// considered/stored counts must all match.
func TestAutoEnumerationMatchesExhaustive(t *testing.T) {
	w := objective.UniformWeights(threeObjs)
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 2; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			m := costmodel.NewDefault(q)
			opts := Options{Objectives: threeObjs, MaxDOP: 2, Alpha: 1.5, Enumeration: EnumExhaustive}
			ex, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Enumeration = EnumAuto
			au, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := "auto-" + tc.shape.String()
			sameFrontier(t, label, au.Frontier, ex.Frontier)
			if au.Best.Cost != ex.Best.Cost {
				t.Errorf("%s seed %d: best plans differ", label, seed)
			}
			if au.Stats.Considered != ex.Stats.Considered || au.Stats.Stored != ex.Stats.Stored {
				t.Errorf("%s seed %d: considered/stored %d/%d vs %d/%d — candidate order must match",
					label, seed, au.Stats.Considered, au.Stats.Stored, ex.Stats.Considered, ex.Stats.Stored)
			}
			ai, arj, aev := au.Frontier.Stats()
			ei, erj, eev := ex.Frontier.Stats()
			if ai != ei || arj != erj || aev != eev {
				t.Errorf("%s seed %d: archive counters (ins=%d rej=%d ev=%d) vs (ins=%d rej=%d ev=%d)",
					label, seed, ai, arj, aev, ei, erj, eev)
			}
			if au.Stats.EnumSplits > ex.Stats.EnumSplits {
				t.Errorf("%s seed %d: adaptive strategy scanned MORE splits (%d) than exhaustive (%d)",
					label, seed, au.Stats.EnumSplits, ex.Stats.EnumSplits)
			}
		}
	}
}

// TestGraphEnumerationMatchesReference pins the graph-aware engine
// against the preserved pre-refactor engine, closing the loop oracle →
// exhaustive flat engine → graph-aware flat engine.
func TestGraphEnumerationMatchesReference(t *testing.T) {
	objs := threeObjs
	w := objective.UniformWeights(objs)
	for _, shape := range []synthetic.Shape{synthetic.Chain, synthetic.Cycle} {
		q := buildShape(t, shape, 6, 5)
		m := costmodel.NewDefault(q)
		opts := Options{Objectives: objs, MaxDOP: 2, Enumeration: EnumGraph}
		got, err := EXA(m, w, objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceEXA(m, w, objective.NoBounds(), Options{Objectives: objs, MaxDOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		sameFrontier(t, shape.String(), got.Frontier, want.Frontier)
		if got.Stats.Considered != want.Stats.Considered {
			t.Errorf("%s: considered %d vs reference %d", shape, got.Stats.Considered, want.Stats.Considered)
		}
	}
}

// TestGraphEnumerationLeftDeep: the LeftDeepOnly ablation must restrict
// both strategies to the same (left-deep) plan space.
func TestGraphEnumerationLeftDeep(t *testing.T) {
	q := buildShape(t, synthetic.Cycle, 6, 2)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, MaxDOP: 2, LeftDeepOnly: true, Enumeration: EnumExhaustive}
	ex, err := EXA(m, w, objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Enumeration = EnumGraph
	gr, err := EXA(m, w, objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sameFrontier(t, "leftdeep", gr.Frontier, ex.Frontier)
	if gr.Stats.Considered != ex.Stats.Considered {
		t.Errorf("considered %d vs %d under LeftDeepOnly", gr.Stats.Considered, ex.Stats.Considered)
	}
}

// TestGraphEnumerationParallelDeterminism: the graph-aware strategy must
// keep the engine's determinism guarantee — identical frontiers for any
// Workers value (this test doubles as the -race exercise of the csg-cmp
// loops under the concurrent level schedule).
func TestGraphEnumerationParallelDeterminism(t *testing.T) {
	q := buildShape(t, synthetic.Cycle, 8, 3)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	base, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: 1, Enumeration: EnumGraph})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		got, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: workers, Enumeration: EnumGraph})
		if err != nil {
			t.Fatal(err)
		}
		sameFrontier(t, "workers", got.Frontier, base.Frontier)
		if got.Stats.Considered != base.Stats.Considered || got.Stats.EnumSplits != base.Stats.EnumSplits {
			t.Errorf("workers=%d: considered/splits %d/%d vs %d/%d",
				workers, got.Stats.Considered, got.Stats.EnumSplits, base.Stats.Considered, base.Stats.EnumSplits)
		}
	}
}

// TestGraphEnumerationRTAGuarantee: the RTA's weighted-cost guarantee
// must hold under the graph-aware strategy even though approximate
// pruning may keep different representatives than the exhaustive order.
func TestGraphEnumerationRTAGuarantee(t *testing.T) {
	const alpha = 1.5
	for _, tc := range differentialShapes {
		q := buildShape(t, tc.shape, tc.tables, 11)
		m := costmodel.NewDefault(q)
		w := objective.UniformWeights(threeObjs)
		exact, err := EXA(m, w, objective.NoBounds(), Options{Objectives: threeObjs, MaxDOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := RTA(m, w, Options{Objectives: threeObjs, MaxDOP: 2, Alpha: alpha, Enumeration: EnumGraph})
		if err != nil {
			t.Fatal(err)
		}
		best, guarantee := w.Cost(approx.Best.Cost), alpha*w.Cost(exact.Best.Cost)
		if best > guarantee*(1+1e-9) {
			t.Errorf("%s: graph-aware RTA weighted cost %g exceeds alpha*optimum %g", tc.shape, best, guarantee)
		}
	}
}

// TestGraphEnumerationDegradedTimeout: an immediately expiring timeout
// must still produce a plan through the degraded path on a query large
// enough that the lazy reduced-view narrowing matters.
func TestGraphEnumerationDegradedTimeout(t *testing.T) {
	q := buildShape(t, synthetic.Chain, 14, 1)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	res, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 2, Timeout: time.Nanosecond, Enumeration: EnumGraph})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("expected the run to report a timeout")
	}
	if res.Best == nil || res.Best.Tables != q.AllTables() {
		t.Fatalf("degraded run returned no full plan: %v", res.Best)
	}
}

package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// differentialShapes are the topologies the engine is pinned against the
// reference engine's exhaustive split loop on, at sizes where the
// reference is still cheap.
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

// TestEnumerateGraphMatchesExhaustiveLevels: the connected-subgraph walk
// must materialize exactly the levels of the brute-force definition —
// every subset of each cardinality, ascending, kept when Connected — so
// the same sets get the same dense ids, while visiting only the sets it
// keeps.
func TestEnumerateGraphMatchesExhaustiveLevels(t *testing.T) {
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 3; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			e := enumerate(q, nil)
			want := make([][]query.TableSet, e.n+1)
			for s := query.TableSet(1); s <= q.AllTables(); s++ {
				if q.Connected(s) {
					want[s.Len()] = append(want[s.Len()], s)
				}
			}
			total := 0
			for k := 1; k <= e.n; k++ {
				total += len(want[k])
				if fmt.Sprint(e.levels[k]) != fmt.Sprint(want[k]) {
					t.Fatalf("%s-%d seed %d level %d:\n got  %v\n want %v", tc.shape, tc.tables, seed, k, e.levels[k], want[k])
				}
			}
			if e.total != total || e.scanned != total {
				t.Errorf("%s-%d seed %d: total %d, scanned %d, want both %d",
					tc.shape, tc.tables, seed, e.total, e.scanned, total)
			}
		}
	}
}

// exhaustiveSplits is the candidate-loop work of an exhaustive
// enumeration of q: 2^|s| - 2 ordered splits for every connected set s
// with |s| >= 2 (bench.ExhaustiveWork is the same count for -fig
// topology).
func exhaustiveSplits(q *query.Query) int {
	n := 0
	for _, level := range enumerate(q, nil).levels[2:] {
		for _, s := range level {
			n += 1<<s.Len() - 2
		}
	}
	return n
}

// timeLoss keeps the reference engine's runs short while still admitting
// sampling scans (tuple loss is active) and leaving frontiers of a few
// dozen plans.
var timeLoss = objective.NewSet(objective.TotalTime, objective.TupleLoss)

// TestGraphEnumerationMatchesExhaustiveEXA is the differential proof on
// random chain, star, cycle, clique and tree graphs: the engine's exact
// frontier, candidate and stored counts equal the reference engine's,
// whose candidate loop tries every subset and keeps those a join edge
// crosses — while the engine visits no more split pairs than that loop,
// and strictly fewer on every non-clique topology.
func TestGraphEnumerationMatchesExhaustiveEXA(t *testing.T) {
	w := objective.UniformWeights(timeLoss)
	opts := Options{Objectives: timeLoss, MaxDOP: 2}
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 3; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			m := costmodel.NewDefault(q)
			got, err := EXA(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceEXA(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s seed %d", tc.shape, seed)
			compareRuns(t, label, got, want)
			scan := exhaustiveSplits(q)
			if got.Stats.EnumSplits > scan {
				t.Errorf("%s: the engine visited MORE splits (%d) than the exhaustive loop (%d)",
					label, got.Stats.EnumSplits, scan)
			}
			if tc.shape != synthetic.Clique && got.Stats.EnumSplits >= scan {
				t.Errorf("%s: expected a strict split-scan reduction, got %d vs %d",
					label, got.Stats.EnumSplits, scan)
			}
		}
	}
}

// TestGraphEnumerationMatchesExhaustiveRTA: approximately pruned archives
// depend on candidate insertion order, so this pins the stronger property
// the engine's candidate loops provide by emitting their splits in the
// subset scan's canonical order — RTA results are bit-for-bit the
// reference engine's, representatives and archive counters included.
func TestGraphEnumerationMatchesExhaustiveRTA(t *testing.T) {
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, MaxDOP: 2, Alpha: 1.5}
	for _, tc := range differentialShapes {
		for seed := int64(1); seed <= 2; seed++ {
			q := buildShape(t, tc.shape, tc.tables, seed)
			m := costmodel.NewDefault(q)
			got, err := RTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReferenceRTA(m, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, fmt.Sprintf("%s seed %d", tc.shape, seed), got, want)
		}
	}
}

// TestAutoEnumerationMatchesExhaustive is the white-box half of the
// enumeration's equivalence: the per-set dispatch (forEachCandidateAuto)
// may route a table set to the subset scan, the csg-cmp traversal or — on
// a set spanning a tree — the edge-cut loop, so each of them must emit
// exactly the definition's ordered split sequence: EachSubset order, kept
// when both halves are connected. All three are driven on every connected
// set of each query, not only where the dispatch picks them, and the
// dispatch itself on top.
func TestAutoEnumerationMatchesExhaustive(t *testing.T) {
	var queries []*query.Query
	for _, shape := range []synthetic.Shape{synthetic.Chain, synthetic.Cycle, synthetic.Star, synthetic.Clique, synthetic.RandomTree} {
		for _, n := range []int{6, 10} {
			for seed := int64(1); seed <= 2; seed++ {
				queries = append(queries, buildShape(t, shape, n, seed))
			}
		}
	}
	cat := catalog.TPCH(1)
	for _, num := range []int{2, 5, 7, 8, 9, 10} {
		queries = append(queries, workload.MustQuery(num, cat))
	}
	for _, q := range queries {
		// One plan per set (the scalar program) is all the loops need to
		// find both halves stored; the splits they visit are read back off
		// the candidates' entries.
		opts, err := Options{Objectives: objective.NewSet(objective.TotalTime), MaxDOP: 1}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(context.Background(), costmodel.NewDefault(q), opts, pareto.NewFlatConfig(opts.Objectives, 1), objective.SingleWeight(objective.TotalTime))
		e.runScalar(func(v objective.Vector) float64 { return v[objective.TotalTime] })
		w := &e.workers[0]
		type loop func(query.TableSet, func(query.TableSet) splitView, candidateFn) bool
		splits := func(run loop, s query.TableSet) []splitPair {
			var out []splitPair
			run(s, e.viewMemo, func(_ *objective.Vector, ent plan.Entry) bool {
				if p := (splitPair{ent.LeftSet, ent.RightSet}); len(out) == 0 || out[len(out)-1] != p {
					out = append(out, p)
				}
				return true
			})
			return out
		}
		for _, level := range e.enum.levels[2:] {
			for _, s := range level {
				var want []splitPair
				s.EachSubset(func(sub, rest query.TableSet) bool {
					if q.Connected(sub) && q.Connected(rest) {
						want = append(want, splitPair{sub, rest})
					}
					return true
				})
				loops := map[string]loop{
					"scan":  w.forEachCandidateScan,
					"graph": w.forEachCandidateGraph,
					"auto":  w.forEachCandidateAuto,
				}
				if q.EdgeCount(s) == s.Len()-1 {
					loops["tree"] = w.forEachCandidateTree
				}
				for name, run := range loops {
					if got := splits(run, s); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s set %v, %s loop:\n got  %v\n want %v", q.Name, s, name, got, want)
					}
				}
			}
		}
	}
}

// TestGraphEnumerationMatchesReference pins the engine against the
// preserved pre-refactor engine on two sparse shapes at a second seed.
func TestGraphEnumerationMatchesReference(t *testing.T) {
	objs := threeObjs
	w := objective.UniformWeights(objs)
	for _, shape := range []synthetic.Shape{synthetic.Chain, synthetic.Cycle} {
		q := buildShape(t, shape, 6, 5)
		m := costmodel.NewDefault(q)
		opts := Options{Objectives: objs, MaxDOP: 2}
		got, err := EXA(m, w, objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceEXA(m, w, objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameFrontier(t, shape.String(), got.Frontier, want.Frontier)
		if got.Stats.Considered != want.Stats.Considered {
			t.Errorf("%s: considered %d vs reference %d", shape, got.Stats.Considered, want.Stats.Considered)
		}
	}
}

// TestGraphEnumerationParallelDeterminism: the enumeration must keep the
// engine's determinism guarantee — identical frontiers for any Workers
// value (this test doubles as the -race exercise of the csg-cmp loops
// under the concurrent level schedule).
func TestGraphEnumerationParallelDeterminism(t *testing.T) {
	q := buildShape(t, synthetic.Cycle, 8, 3)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	base, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		got, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: workers})
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
// must hold on every shape.
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
		approx, err := RTA(m, w, Options{Objectives: threeObjs, MaxDOP: 2, Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		best, guarantee := w.Cost(approx.Best.Cost), alpha*w.Cost(exact.Best.Cost)
		if best > guarantee*(1+1e-9) {
			t.Errorf("%s: RTA weighted cost %g exceeds alpha*optimum %g", tc.shape, best, guarantee)
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
	res, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 2, Timeout: time.Nanosecond})
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

package pareto

import (
	"fmt"
	"math/rand"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// differential_test.go proves the flat struct-of-arrays archive a drop-in
// replacement for the legacy tree-backed archive: over random cost
// streams, both must make identical insert decisions (stored/rejected),
// keep identical frontiers in identical order, and report identical
// inserted/rejected/evicted counters — for exact pruning (alpha 1),
// approximate pruning (alpha 1.5), and per-objective precision vectors.

// randomStream draws cost vectors whose active objectives lie in
// [lo, lo*spread]; a narrow spread produces many dominance interactions.
func randomStream(r *rand.Rand, n int, objs objective.Set) []objective.Vector {
	ids := objs.IDs()
	out := make([]objective.Vector, n)
	for i := range out {
		for _, o := range ids {
			out[i][o] = 1 + 3*r.Float64()
		}
		// Duplicates and exact repeats exercise the tie handling.
		if i > 0 && r.Intn(10) == 0 {
			out[i] = out[r.Intn(i)]
		}
	}
	return out
}

// runDifferential feeds one stream to both representations and compares
// every observable after every insert.
func runDifferential(t *testing.T, legacy *Archive, flat *FlatArchive, stream []objective.Vector, objs objective.Set) {
	t.Helper()
	for i, v := range stream {
		lp := &plan.Node{Cost: v}
		gotL := legacy.Insert(lp)
		gotF := flat.Insert(v, plan.Entry{Op: int32(i)})
		if gotL != gotF {
			t.Fatalf("insert %d (%v): legacy stored=%v, flat stored=%v", i, v.FormatOn(objs), gotL, gotF)
		}
		if legacy.Len() != flat.Len() {
			t.Fatalf("insert %d: legacy len %d != flat len %d", i, legacy.Len(), flat.Len())
		}
	}
	li, lr, le := legacy.Stats()
	fi, fr, fe := flat.Stats()
	if li != fi || lr != fr || le != fe {
		t.Fatalf("counters differ: legacy (ins=%d rej=%d ev=%d), flat (ins=%d rej=%d ev=%d)", li, lr, le, fi, fr, fe)
	}
	lf, ff := legacy.Frontier(), flat.Frontier()
	for i := range lf {
		if lf[i] != ff[i] {
			t.Fatalf("frontier entry %d differs:\nlegacy %v\nflat   %v", i, lf[i], ff[i])
		}
	}
}

// TestFlatMatchesLegacyScalarAlpha: scalar-alpha pruning, exact and
// approximate, over many random streams and objective sets.
func TestFlatMatchesLegacyScalarAlpha(t *testing.T) {
	objSets := []objective.Set{
		objective.NewSet(objective.TotalTime, objective.BufferFootprint),
		objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy),
		objective.AllSet(),
	}
	for _, alpha := range []float64{1, 1.5} {
		for oi, objs := range objSets {
			for seed := int64(0); seed < 20; seed++ {
				t.Run(fmt.Sprintf("alpha=%v/objs=%d/seed=%d", alpha, oi, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(seed))
					stream := randomStream(r, 300, objs)
					legacy := NewArchive(objs, alpha)
					flat := NewFlat(NewFlatConfig(objs, alpha))
					runDifferential(t, legacy, flat, stream, objs)
				})
			}
		}
	}
}

// TestFlatMatchesLegacyPrecisionVector: per-objective precision pruning
// (the per-objective RTA extension) must also agree decision for decision.
func TestFlatMatchesLegacyPrecisionVector(t *testing.T) {
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	precs := []objective.Precision{
		objective.UniformPrecision(1.5, objs).With(objective.TotalTime, 1),
		objective.UniformPrecision(1, objs).With(objective.Energy, 2),
		objective.UniformPrecision(1.25, objs),
	}
	for pi, prec := range precs {
		for seed := int64(0); seed < 20; seed++ {
			t.Run(fmt.Sprintf("prec=%d/seed=%d", pi, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(1000 + seed))
				stream := randomStream(r, 300, objs)
				legacy := NewPrecisionArchive(objs, prec)
				flat := NewFlat(NewFlatPrecisionConfig(objs, prec))
				runDifferential(t, legacy, flat, stream, objs)
			})
		}
	}
}

// TestFlatSelectBestMatchesLegacy: the flat SelectBest must pick the same
// plan (by cost vector) as the legacy implementation, including the
// bounds-infeasible fallback and earliest-index tie-breaking.
func TestFlatSelectBestMatchesLegacy(t *testing.T) {
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	w := objective.UniformWeights(objs)
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		stream := randomStream(r, 100, objs)
		legacy := NewArchive(objs, 1)
		flat := NewFlat(NewFlatConfig(objs, 1))
		for i, v := range stream {
			legacy.Insert(&plan.Node{Cost: v})
			flat.Insert(v, plan.Entry{Op: int32(i)})
		}
		bounds := []objective.Bounds{
			objective.NoBounds(),
			objective.NoBounds().With(objective.TotalTime, 2),
			objective.NoBounds().With(objective.TotalTime, 0.5), // infeasible
		}
		for bi, b := range bounds {
			lp := legacy.SelectBest(w, b)
			fi := flat.SelectBest(w, b)
			if lp == nil || fi < 0 {
				t.Fatalf("seed %d bounds %d: empty selection", seed, bi)
			}
			if lp.Cost != flat.CostAt(fi) {
				t.Errorf("seed %d bounds %d: legacy best %v != flat best %v", seed, bi, lp.Cost, flat.CostAt(fi))
			}
		}
	}
}

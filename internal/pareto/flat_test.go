package pareto

import (
	"fmt"
	"math/rand"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// benchObjs is the three-objective set the scaling experiments use.
var benchObjs = objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)

// benchStream is a fixed candidate stream with a realistic mix of stored,
// rejected, and evicting inserts.
func benchStream(n int) []objective.Vector {
	return randomStream(rand.New(rand.NewSource(42)), n, benchObjs)
}

// TestArchiveInsertZeroAlloc is the CI smoke gate of the allocation-free
// hot path: after warm-up (backing arrays grown to steady-state capacity),
// offering candidates to a flat archive must perform zero heap
// allocations per insert — stored, rejected, or evicting alike.
func TestArchiveInsertZeroAlloc(t *testing.T) {
	stream := benchStream(512)
	a := NewFlat(NewFlatConfig(benchObjs, 1.2))
	ent := plan.Entry{}
	// Warm-up: grow the backing arrays once.
	for _, v := range stream {
		a.Insert(v, ent)
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.Reset()
		for _, v := range stream {
			a.Insert(v, ent)
		}
	})
	if allocs > 0 {
		t.Fatalf("FlatArchive.Insert allocates after warm-up: %.2f allocs per %d-insert stream", allocs, len(stream))
	}
}

// TestFlatReset: Reset must empty the archive and zero the counters while
// subsequent inserts still behave correctly.
func TestFlatReset(t *testing.T) {
	a := NewFlat(NewFlatConfig(benchObjs, 1))
	for _, v := range benchStream(64) {
		a.Insert(v, plan.Entry{})
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d", a.Len())
	}
	if i, r, e := a.Stats(); i != 0 || r != 0 || e != 0 {
		t.Fatalf("counters after Reset = %d/%d/%d", i, r, e)
	}
	v := objective.Vector{}.With(objective.TotalTime, 1)
	if !a.Insert(v, plan.Entry{}) {
		t.Fatal("insert into reset archive failed")
	}
	if a.CostAt(0) != v {
		t.Fatalf("CostAt(0) = %v, want %v", a.CostAt(0), v)
	}
}

// BenchmarkArchiveInsert measures the hot-path insert of both archive
// representations over an identical candidate stream; run with -benchmem
// to see the allocation gap the refactor closes.
func BenchmarkArchiveInsert(b *testing.B) {
	stream := benchStream(512)
	b.Run("flat", func(b *testing.B) {
		cfg := NewFlatConfig(benchObjs, 1.2)
		a := NewFlat(cfg)
		ent := plan.Entry{}
		for _, v := range stream {
			a.Insert(v, ent)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Reset()
			for _, v := range stream {
				a.Insert(v, ent)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/insert")
	})
	b.Run("legacy", func(b *testing.B) {
		// The legacy archive has no Reset; rebuilding it each round is the
		// representation's natural usage (one archive per table set). Node
		// allocation is part of the measured legacy cost: the old hot path
		// built a *plan.Node per candidate before offering it.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := NewArchive(benchObjs, 1.2)
			for _, v := range stream {
				a.Insert(&plan.Node{Cost: v})
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/insert")
	})
}

// selectBestCase is a frontier of rows random cost rows over the first
// width objectives, uniform weights and — when bounded — a finite bound on
// every one of them that about half the rows respect.
func selectBestCase(width, rows int, bounded bool) (costs []float64, w objective.Weights, b objective.Bounds, objs objective.Set) {
	objs = objective.NewSet(objective.All()[:width]...)
	for _, v := range randomStream(rand.New(rand.NewSource(int64(width))), rows, objs) {
		costs = append(costs, v[:]...)
	}
	w, b = objective.UniformWeights(objs), objective.NoBounds()
	if bounded {
		for _, o := range objs.IDs() {
			b = b.With(o, 4-0.6/float64(width))
		}
	}
	return costs, w, b, objs
}

// TestSelectBestRowsZeroAlloc: the SelectBest scan — what a re-weight is,
// next to a lookup — allocates nothing, at any width and with or without
// finite bounds. (Bounds.Respects built objs.IDs() once per row until it
// walked the set's bits.)
func TestSelectBestRowsZeroAlloc(t *testing.T) {
	for _, width := range []int{2, 3, 6, 9} {
		for _, bounded := range []bool{false, true} {
			costs, w, b, objs := selectBestCase(width, 128, bounded)
			in := 0
			for i := 0; i < len(costs); i += stride {
				if b.Respects(objective.Vector(costs[i:i+stride]), objs) {
					in++
				}
			}
			if bounded && (in == 0 || in == 128) {
				t.Fatalf("width %d: %d of 128 rows within the bounds; the case exercises one verdict only", width, in)
			}
			var best int32
			allocs := testing.AllocsPerRun(20, func() { best = SelectBestRows(costs, w, b, objs) })
			if allocs != 0 || best < 0 {
				t.Errorf("width %d, bounded %v: SelectBestRows allocates %.1f times per 128-row scan (row %d)", width, bounded, allocs, best)
			}
		}
	}
}

// BenchmarkSelectBestRows reports the scan's cost per frontier row (the
// scoreboard's pareto.select_best_ns_per_row) at the widths above.
func BenchmarkSelectBestRows(b *testing.B) {
	for _, width := range []int{2, 3, 6, 9} {
		for _, bounded := range []bool{false, true} {
			costs, w, bounds, objs := selectBestCase(width, 128, bounded)
			b.Run(fmt.Sprintf("w%d/bounded=%v", width, bounded), func(b *testing.B) {
				b.ReportAllocs()
				var best int32
				for i := 0; i < b.N; i++ {
					best += SelectBestRows(costs, w, bounds, objs)
				}
				sinkRow = best
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*128), "ns/row")
			})
		}
	}
}

// sinkRow keeps BenchmarkSelectBestRows' scans from being optimized away.
var sinkRow int32

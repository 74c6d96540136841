package pareto

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// kernelObjSets spans every Insert dispatch path: the two-wide antichain
// and the one scan loop at every wider width (3 to 9 objectives). w8 comes
// last so that the committed FuzzFlatInsert seeds, which pick a width by
// index, keep theirs.
var kernelObjSets = []struct {
	name string
	objs objective.Set
}{
	{"w2", objective.NewSet(objective.TotalTime, objective.BufferFootprint)},
	{"w3", objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)},
	{"w4", objective.NewSet(objective.TotalTime, objective.IOLoad, objective.CPULoad, objective.Energy)},
	{"w5", objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
		objective.CPULoad, objective.Energy)},
	{"w6", objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
		objective.CPULoad, objective.BufferFootprint, objective.Energy)},
	{"w7", objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
		objective.CPULoad, objective.DiskFootprint, objective.BufferFootprint, objective.Energy)},
	{"w9", objective.AllSet()},
	{"w8", objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad, objective.CPULoad,
		objective.Cores, objective.DiskFootprint, objective.BufferFootprint, objective.Energy)},
}

// TestKernelDispatch pins that only two-wide is special: every wider width
// runs the one scan loop.
func TestKernelDispatch(t *testing.T) {
	for _, tc := range kernelObjSets {
		if got, want := NewFlatConfig(tc.objs, 1.2).antichain, tc.name == "w2"; got != want {
			t.Errorf("%s: antichain %v, want %v", tc.name, got, want)
		}
	}
}

// TestKernelMatchesGenericOracle drives random cost streams through the
// indexed Insert and through insertGeneric (the retained early-exit scalar
// loops) on twin archives, demanding identical decisions, frontiers, and
// counters after every insert — the differential guarantee that the
// sum-bounded scans are bit-for-bit the generic loops — and an index that
// orders exactly the stored rows (indexDiff). Seeds 7 to 9 of each
// configuration carry NaNs and infinities on active objectives, on which the
// scans' "<=" and the oracle's "no >" part ways, and sums that are NaN: the
// archive must have gone generic. Seeds 10 and 11 put a bucket edge of the
// dominance signatures (bucketEdges) on a third of the active costs.
func TestKernelMatchesGenericOracle(t *testing.T) {
	for _, tc := range kernelObjSets {
		for _, alpha := range []float64{1, 1.3} {
			for seed := int64(0); seed < 12; seed++ {
				t.Run(fmt.Sprintf("%s/alpha=%v/seed=%d", tc.name, alpha, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(9000 + seed))
					stream := randomStream(r, 400, tc.objs)
					for i := range stream {
						switch {
						case seed >= 10:
							for _, o := range tc.objs.IDs() {
								if r.Intn(3) == 0 {
									stream[i][o] = bucketEdges[r.Intn(len(bucketEdges))]
								}
							}
						case seed >= 7 && r.Intn(40) == 0:
							stream[i] = special(r, stream[i], tc.objs.IDs())
						}
					}
					fast := NewFlat(NewFlatConfig(tc.objs, alpha))
					oracle := NewFlat(NewFlatConfig(tc.objs, alpha))
					for i, v := range stream {
						gotF := fast.Insert(v, plan.Entry{Op: int32(i)})
						gotO := oracle.insertGeneric(v, plan.Entry{Op: int32(i)})
						if gotF != gotO {
							t.Fatalf("insert %d: kernel stored=%v, oracle stored=%v", i, gotF, gotO)
						}
						if d := indexDiff(fast); d != "" {
							t.Fatalf("insert %d: %s", i, d)
						}
					}
					// Cost rows are compared bit for bit: a stored NaN equals itself.
					if d := diffArchives(fast, oracle); d != "" {
						t.Fatal(d)
					}
				})
			}
		}
	}
}

// TestNaNCandidateMatchesGenericOracle is the case that showed the kernels and
// the oracle apart: the first row fails the candidate on a finite objective
// (so no hint answers), the second is within every threshold that is not NaN.
// "No objective with >" rejects the candidate, "row <= t" keeps it — so an
// insert with a NaN threshold, and every scanning insert of that archive after
// it, is insertGeneric's. The same streams are committed fuzz seeds.
func TestNaNCandidateMatchesGenericOracle(t *testing.T) {
	nan := math.NaN()
	for _, tc := range kernelObjSets[:3] {
		ids := tc.objs.IDs()
		vec := func(xs ...float64) (v objective.Vector) {
			for k, o := range ids {
				v[o] = xs[min(k, len(xs)-1)]
			}
			return v
		}
		streams := map[string][]objective.Vector{
			"candidate":    {vec(5, 1, 9), vec(1, 5, 1), vec(nan, 6, 2), vec(7)},
			"stored first": {vec(nan, 6), vec(7), vec(3, 8), vec(8, 3)},
		}
		if len(ids) == 2 {
			streams["candidate"] = []objective.Vector{vec(1, 9), vec(5, 1), vec(nan, 5), vec(7)}
		}
		for name, stream := range streams {
			for _, alpha := range []float64{1, 1.5} {
				fast, oracle := NewFlat(NewFlatConfig(tc.objs, alpha)), NewFlat(NewFlatConfig(tc.objs, alpha))
				for i, v := range stream {
					e := plan.Entry{Op: int32(i)}
					if gotF, gotO := fast.Insert(v, e), oracle.insertGeneric(v, e); gotF != gotO {
						t.Errorf("%s/%s/alpha=%v insert %d (%v): stored=%v, oracle stored=%v",
							tc.name, name, alpha, i, v.FormatOn(tc.objs), gotF, gotO)
					}
				}
				if d := diffArchives(fast, oracle); d != "" {
					t.Errorf("%s/%s/alpha=%v: %s", tc.name, name, alpha, d)
				}
			}
		}
	}
}

// TestIndexEdgeStreams drives streams built for the sum index's edge cases
// through InsertRow and insertGeneric on twin archives, at every width and
// both alphas, and checks after every insert that the twins agree and that the
// index orders exactly the stored rows: equal sums (permutations of one
// vector, and their doubles), signed zeros, +Inf costs, finite costs whose sum
// overflows to +Inf, and +Inf beside -Inf, whose sum is NaN — the one stream
// that must send the archive generic (two-wide, the -Inf does it first) — and
// the bucket edges of the dominance signatures (bucketEdges), whose negative
// costs send only a two-wide archive generic.
func TestIndexEdgeStreams(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	pools := []struct {
		name     string
		values   []float64
		generic  bool // wider than two
		generic2 bool // two-wide
	}{
		{"equal sums", nil, false, false},
		{"signed zeros", []float64{negZero, 0, 1, 2}, false, false},
		{"+Inf", []float64{1, 2, 4, inf}, false, false},
		{"overflow", []float64{1e308, 1e308, 1, 0}, false, false},
		{"NaN sum", []float64{1, 2, inf, math.Inf(-1)}, true, true},
		{"bucket edges", bucketEdges, false, true},
	}
	for _, tc := range kernelObjSets {
		ids := tc.objs.IDs()
		for _, pool := range pools {
			for _, alpha := range []float64{1, 1.5} {
				t.Run(fmt.Sprintf("%s/%s/alpha=%v", tc.name, pool.name, alpha), func(t *testing.T) {
					r := rand.New(rand.NewSource(31))
					fast, oracle := NewFlat(NewFlatConfig(tc.objs, alpha)), NewFlat(NewFlatConfig(tc.objs, alpha))
					for i := 0; i < 300; i++ {
						var v objective.Vector
						if pool.values == nil {
							scale := float64(1 + r.Intn(2))
							for k, j := range r.Perm(len(ids)) {
								v[ids[k]] = scale * float64(1+j)
							}
						} else {
							for _, o := range ids {
								v[o] = pool.values[r.Intn(len(pool.values))]
							}
						}
						e := plan.Entry{Op: int32(i)}
						if gotF, gotO := fast.InsertRow(&v, e), oracle.insertGeneric(v, e); gotF != gotO {
							t.Fatalf("insert %d (%v): stored=%v, oracle stored=%v", i, v.FormatOn(tc.objs), gotF, gotO)
						}
						if d := diffArchives(fast, oracle) + indexDiff(fast); d != "" {
							t.Fatalf("insert %d (%v): %s", i, v.FormatOn(tc.objs), d)
						}
					}
					want := pool.generic
					if len(ids) == 2 {
						want = pool.generic2
					}
					if fast.generic != want {
						t.Fatalf("archive generic = %v, want %v", fast.generic, want)
					}
				})
			}
		}
	}
}

// kernelStream pre-generates a stream for benchmarking one objective set.
func kernelStream(objs objective.Set, n int) []objective.Vector {
	return randomStream(rand.New(rand.NewSource(77)), n, objs)
}

// BenchmarkDominanceKernel measures the rejection scan alone — the archive
// is frozen at a fixed size and the probe is approximately dominated by the
// middle row only, so the scan runs to it with no mutation. It calls
// rejector, the scan InsertRow runs after a hint miss: through Insert the
// one probe would be a hint hit on every iteration but the first, and the
// benchmark would time no scan at all. Sweeps the two-wide antichain and the
// one loop of every wider width across archive sizes.
func BenchmarkDominanceKernel(b *testing.B) {
	for _, tc := range kernelObjSets {
		for _, size := range []int{16, 64, 256} {
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, size), func(b *testing.B) {
				cfg := NewFlatConfig(tc.objs, 1.2)
				a := NewFlat(cfg)
				// Rows no other row approximately dominates: row i trades
				// objective ids[0] against the rest by a factor of two per
				// row (> alpha), so the archive stays exactly size long.
				ids := tc.objs.IDs()
				row := func(i int) (v objective.Vector) {
					for k, o := range ids {
						if k == 0 {
							v[o] = math.Ldexp(1, i)
						} else {
							v[o] = math.Ldexp(1, size-i)
						}
					}
					return v
				}
				for i := 0; i < size; i++ {
					a.Insert(row(i), plan.Entry{Op: int32(i)})
				}
				if a.Len() != size {
					b.Fatalf("archive size %d, want %d", a.Len(), size)
				}
				// A probe only the middle row rejects.
				probe := row(size / 2)
				var t [stride]float64
				cfg.thresholds(&probe, &t)
				_, tk, _ := cfg.keys(&probe, &t)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// r is a rank: the row is read in place, as CostRow would
					// seal the archive and read storage order.
					if r := a.rejector(&t, tk); r < 0 || *(*objective.Vector)(a.costs[r*stride:]) != probe {
						b.Fatal("the middle row must reject the probe")
					}
				}
			})
		}
	}
}

// BenchmarkInsertHinted measures Insert on the stream shape the engine
// produces and the hint is for: runs of jittered near-copies of one base
// vector (a table set's candidates differ in one sub-plan or operator at a
// time), so that the row that rejected the last candidate rejects most of
// the next. The hint share is reported beside the time.
func BenchmarkInsertHinted(b *testing.B) {
	for _, tc := range kernelObjSets {
		b.Run(tc.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(78))
			ids := tc.objs.IDs()
			var stream []objective.Vector
			for len(stream) < 1000 {
				base := randomStream(r, 1, tc.objs)[0]
				for c := 2 + r.Intn(8); c > 0; c-- {
					for _, o := range ids {
						base[o] *= 1 + 0.02*r.Float64()
					}
					stream = append(stream, base)
				}
			}
			a := NewFlat(NewFlatConfig(tc.objs, 1.2))
			for i, v := range stream { // warm-up sizes the backing arrays
				a.Insert(v, plan.Entry{Op: int32(i)})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Reset()
				for j := range stream {
					a.InsertRow(&stream[j], plan.Entry{Op: int32(j)})
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/insert")
			b.ReportMetric(float64(a.HintRejected())/float64(len(stream)), "hint-share")
		})
	}
}

// BenchmarkFlatInsert measures the full Insert cycle (rejection scan,
// eviction compaction, append) over replayed random streams, across
// active-objective widths and stream lengths. Reset keeps the backing
// arrays, so steady-state iterations are allocation-free.
func BenchmarkFlatInsert(b *testing.B) {
	for _, tc := range kernelObjSets {
		for _, n := range []int{100, 1000} {
			b.Run(fmt.Sprintf("%s/stream=%d", tc.name, n), func(b *testing.B) {
				stream := kernelStream(tc.objs, n)
				cfg := NewFlatConfig(tc.objs, 1.2)
				a := NewFlat(cfg)
				for i, v := range stream { // warm-up sizes the backing arrays
					a.Insert(v, plan.Entry{Op: int32(i)})
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Reset()
					for j, v := range stream {
						a.Insert(v, plan.Entry{Op: int32(j)})
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
			})
		}
	}
}

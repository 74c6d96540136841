package pareto

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// diffArchives compares every observable of two flat archives — length,
// the three counters, cost rows bit for bit, entries — and describes the
// first difference ("" for none). HintRejected is deliberately not
// compared: the oracle side has no hint.
func diffArchives(fast, oracle *FlatArchive) string {
	if fast.Len() != oracle.Len() {
		return fmt.Sprintf("len %d, oracle %d", fast.Len(), oracle.Len())
	}
	fi, fr, fe := fast.Stats()
	oi, or, oe := oracle.Stats()
	if fi != oi || fr != or || fe != oe {
		return fmt.Sprintf("counters (ins=%d rej=%d ev=%d), oracle (ins=%d rej=%d ev=%d)", fi, fr, fe, oi, or, oe)
	}
	fc, oc := fast.Rows(), oracle.Rows()
	if len(fc) != len(oc) {
		return fmt.Sprintf("%d cost cells, oracle %d", len(fc), len(oc))
	}
	for i := range fc {
		if math.Float64bits(fc[i]) != math.Float64bits(oc[i]) {
			return fmt.Sprintf("row %d objective %d: %v, oracle %v", i/stride, i%stride, fc[i], oc[i])
		}
	}
	for i := 0; i < fast.Len(); i++ {
		if fast.EntryAt(int32(i)) != oracle.EntryAt(int32(i)) {
			return fmt.Sprintf("entry %d: %+v, oracle %+v", i, fast.EntryAt(int32(i)), oracle.EntryAt(int32(i)))
		}
	}
	return ""
}

// hintConfigs are the pruning configurations the hint is checked under:
// both scalar alphas of TestKernelMatchesGenericOracle and a precision
// vector that differs per objective (exact on some, coarse on others).
func hintConfigs(objs objective.Set) []hintConfig {
	prec := objective.UniformPrecision(1, objs)
	for k, o := range objs.IDs() {
		prec = prec.With(o, 1+0.25*float64(k%3))
	}
	return []hintConfig{
		{"alpha=1", func() *FlatConfig { return NewFlatConfig(objs, 1) }},
		{"alpha=1.3", func() *FlatConfig { return NewFlatConfig(objs, 1.3) }},
		{"precision", func() *FlatConfig { return NewFlatPrecisionConfig(objs, prec) }},
	}
}

type hintConfig struct {
	name  string
	build func() *FlatConfig
}

// TestHintMatchesGenericOracle drives streams *with locality* — the shape
// of a table set's candidates, and the only shape on which the last-rejector
// hint fires — through InsertRow and through the hint-free insertGeneric on
// twin archives, comparing every observable after every insert. Each base
// vector is followed by one to eight jittered near-copies; interleaved are
// a vector that strictly dominates the hinted row (evicting it, so the hint
// names another row or the end), a vector that dominates nearly everything
// (collapsing the archive far below the hint offset) and a Reset mid-stream.
func TestHintMatchesGenericOracle(t *testing.T) {
	for _, tc := range kernelObjSets {
		ids := tc.objs.IDs()
		for _, hc := range hintConfigs(tc.objs) {
			t.Run(tc.name+"/"+hc.name, func(t *testing.T) {
				hits, stale := 0, 0
				for seed := int64(0); seed < 5; seed++ {
					r := rand.New(rand.NewSource(4200 + seed))
					fast, oracle := NewFlat(hc.build()), NewFlat(hc.build())
					n, reset := 0, false
					offer := func(v objective.Vector) {
						if fast.Len() > 0 && fast.hint >= len(fast.costs) {
							stale++
						}
						e := plan.Entry{Op: int32(n)}
						gotF, gotO := fast.InsertRow(&v, e), oracle.insertGeneric(v, e)
						if gotF != gotO {
							t.Fatalf("seed %d insert %d: stored=%v, oracle stored=%v", seed, n, gotF, gotO)
						}
						if d := diffArchives(fast, oracle); d != "" {
							t.Fatalf("seed %d insert %d: %s", seed, n, d)
						}
						n++
					}
					scale := 1.0
					for n < 600 {
						switch p := r.Intn(20); {
						case p == 0 && fast.hint < len(fast.costs):
							var v objective.Vector
							for _, o := range ids {
								v[o] = 0.9 * fast.costs[fast.hint+int(o)]
							}
							offer(v)
						case p == 1 && fast.Len() > 8:
							// Every base so far is >= 8x the new scale.
							scale /= 8
							var v objective.Vector
							for _, o := range ids {
								v[o] = 4 * scale
							}
							offer(v)
						default:
							var base objective.Vector
							for _, o := range ids {
								base[o] = scale * (1 + 3*r.Float64())
							}
							offer(base)
							for c := 1 + r.Intn(8); c > 0; c-- {
								v := base
								for _, o := range ids {
									v[o] *= 1 + 0.05*r.Float64()
								}
								offer(v)
							}
						}
						if n >= 300 && !reset {
							reset = true
							hits += fast.HintRejected()
							fast.Reset()
							oracle.Reset()
							if fast.hint != 0 || fast.HintRejected() != 0 {
								t.Fatalf("Reset left hint %d, hint rejections %d", fast.hint, fast.HintRejected())
							}
						}
					}
					hits += fast.HintRejected()
				}
				// The streams must reach what the test is for.
				if hits == 0 {
					t.Error("the hint never rejected a candidate")
				}
				if stale == 0 {
					t.Error("no insert ran with the hint past the end of the archive")
				}
			})
		}
	}
}

// TestRejectsAllIsTheHintTest: on twin archives fed one stream with locality,
// RejectsAll(v, n) on one is held against n InsertRow(v) on the other. A yes
// must leave the twins indistinguishable — n rejections, n of them the
// hint's, the hint where it was, contents untouched — and a no must leave the
// archive exactly as it was, whether or not a scan would have found a
// rejecting row: it is the hint test and nothing else. A NaN in the offered
// vector is always a no, where InsertRow's hint test lets it through.
func TestRejectsAllIsTheHintTest(t *testing.T) {
	for _, tc := range kernelObjSets {
		ids := tc.objs.IDs()
		for _, hc := range hintConfigs(tc.objs) {
			t.Run(tc.name+"/"+hc.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(77))
				group, single := NewFlat(hc.build()), NewFlat(hc.build())
				yes, no, scanOnly := 0, 0, 0
				for i := 0; i < 400; i++ {
					var base objective.Vector
					for _, o := range ids {
						base[o] = 1 + 3*r.Float64()
					}
					for c := 1 + r.Intn(8); c > 0; c-- {
						v := base
						for _, o := range ids {
							v[o] *= 1 + 0.05*r.Float64()
						}
						n := 1 + r.Intn(4)
						before := *group
						if group.RejectsAll(&v, n) {
							yes++
							for k := 0; k < n; k++ {
								if single.InsertRow(&v, plan.Entry{}) {
									t.Fatalf("RejectsAll said yes to %v, InsertRow stored it", v.FormatOn(tc.objs))
								}
							}
						} else {
							no++
							if group.rejected != before.rejected || group.hintRejected != before.hintRejected {
								t.Fatal("RejectsAll said no and counted")
							}
							var th [stride]float64
							group.cfg.thresholds(&v, &th)
							if group.rejectingRow(&th) >= 0 {
								scanOnly++
							}
						}
						if group.hint != before.hint || group.inserted != before.inserted || group.evicted != before.evicted {
							t.Fatal("RejectsAll moved the hint or a counter that is not its own")
						}
						if d := diffArchives(group, single); d != "" || group.hintRejected != single.hintRejected || group.hint != single.hint {
							t.Fatalf("twins differ after RejectsAll: %s (hint %d/%d, hint rejections %d/%d)",
								d, group.hint, single.hint, group.hintRejected, single.hintRejected)
						}
						nan := v
						nan[ids[len(ids)-1]] = math.NaN()
						if group.RejectsAll(&nan, n) {
							t.Fatal("RejectsAll said yes to a NaN")
						}
						group.InsertRow(&v, plan.Entry{})
						single.InsertRow(&v, plan.Entry{})
					}
				}
				// The stream must reach all three answers.
				if yes == 0 || no == 0 || scanOnly == 0 {
					t.Errorf("%d yes, %d no, %d of them where a scan would have rejected: want all three", yes, no, scanOnly)
				}
			})
		}
	}
}

// fuzzCost maps one fuzz byte to a cost: a coarse grid, so that ties,
// duplicates and dominance are common, with zero and both infinities at the
// ends. NaN is left out: no cost formula produces it, and on it "r <= t" (the
// kernels) and "!(r > t)" (the generic loops) are different questions.
func fuzzCost(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 254:
		return math.Inf(-1)
	case 255:
		return math.Inf(1)
	}
	return float64(b) / 8
}

// FuzzFlatInsert: arbitrary bytes become an objective width, a scalar alpha
// or a per-objective precision vector, and a cost stream; twin archives take
// the stream through InsertRow and through insertGeneric and must agree on
// every observable after every insert. The seeds are the files under
// testdata/fuzz/FuzzFlatInsert.
func FuzzFlatInsert(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		objs := kernelObjSets[int(data[0])%len(kernelObjSets)].objs
		ids := objs.IDs()
		// Low six bits: alpha in [1, 2.97]; top bit: vary it per objective.
		alpha := 1 + float64(data[1]&0x3f)/32
		newCfg := func() *FlatConfig { return NewFlatConfig(objs, alpha) }
		if data[1]&0x80 != 0 {
			prec := objective.UniformPrecision(1, objs)
			for k, o := range ids {
				prec = prec.With(o, 1+(alpha-1)*float64(k%3)/2)
			}
			newCfg = func() *FlatConfig { return NewFlatPrecisionConfig(objs, prec) }
		}
		fast, oracle := NewFlat(newCfg()), NewFlat(newCfg())
		data = data[2:]
		for n := 0; len(data) >= len(ids); n++ {
			var v objective.Vector
			for k, o := range ids {
				v[o] = fuzzCost(data[k])
			}
			data = data[len(ids):]
			e := plan.Entry{Op: int32(n)}
			if gotF, gotO := fast.InsertRow(&v, e), oracle.insertGeneric(v, e); gotF != gotO {
				t.Fatalf("insert %d (%v): stored=%v, oracle stored=%v", n, v.FormatOn(objs), gotF, gotO)
			}
			if d := diffArchives(fast, oracle); d != "" {
				t.Fatalf("insert %d (%v): %s", n, v.FormatOn(objs), d)
			}
		}
	})
}

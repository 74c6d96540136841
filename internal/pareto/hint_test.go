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

// special replaces one active objective of v, picked by r, with a NaN or an
// infinity — costs that overflowed statistics do produce (core's
// TestOverflowMatchesReference), and on which "row <= t" (the two- to four-wide
// kernels) and "no objective with >" (the oracle) are different questions.
func special(r *rand.Rand, v objective.Vector, ids []objective.ID) objective.Vector {
	v[ids[r.Intn(len(ids))]] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	return v
}

// TestHintMatchesGenericOracle drives streams *with locality* — the shape
// of a table set's candidates, and the only shape on which the last-rejector
// hints fire — through InsertRowNear and through the hint-free, from-row-0
// insertGeneric on twin archives, comparing every observable after every
// insert: neither hint and no scan order may show. Each base vector is followed
// by one to eight jittered near-copies; interleaved are a vector that strictly
// dominates the hinted row (evicting it, so the hint names another row or the
// end), a vector that dominates nearly everything (collapsing the archive far
// below the hint offset and every slot) and a Reset mid-stream. Each insert
// takes its second hint from a table of eight slots, two of which start on
// rows no archive has (past any end, negative) and all of which go stale at
// every collapse and Reset — like the engine's, the table outlives the archive.
// The odd seeds sprinkle NaNs and infinities over the active objectives.
func TestHintMatchesGenericOracle(t *testing.T) {
	for _, tc := range kernelObjSets {
		ids := tc.objs.IDs()
		for _, hc := range hintConfigs(tc.objs) {
			t.Run(tc.name+"/"+hc.name, func(t *testing.T) {
				hits, nearHits, stale := 0, 0, 0
				for seed := int64(0); seed < 6; seed++ {
					r := rand.New(rand.NewSource(4200 + seed))
					fast, oracle := NewFlat(hc.build()), NewFlat(hc.build())
					slots := [8]int32{6: 1 << 20, 7: -1}
					n, reset := 0, false
					offer := func(v objective.Vector, near *int32) {
						if seed%2 == 1 && r.Intn(25) == 0 {
							v = special(r, v, ids)
						}
						if fast.Len() > 0 && fast.hint >= len(fast.costs) {
							stale++
						}
						hint, answered := fast.hint, fast.hintRejected
						e := plan.Entry{Op: int32(n)}
						gotF, gotO := fast.InsertRowNear(&v, e, near), oracle.insertGeneric(v, e)
						if gotF != gotO {
							t.Fatalf("seed %d insert %d: stored=%v, oracle stored=%v", seed, n, gotF, gotO)
						}
						if d := diffArchives(fast, oracle); d != "" {
							t.Fatalf("seed %d insert %d: %s", seed, n, d)
						}
						if fast.hintRejected > answered && fast.hint != hint {
							nearHits++ // answered without a scan, and not by the hint
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
							offer(v, &slots[r.Intn(len(slots))])
						case p == 1 && fast.Len() > 8:
							// Every base so far is >= 8x the new scale.
							scale /= 8
							var v objective.Vector
							for _, o := range ids {
								v[o] = 4 * scale
							}
							offer(v, &slots[r.Intn(len(slots))])
						default:
							// Two bases with a slot each, their near-copies
							// taking turns: the hint is left on the other base's
							// rejector, the slot on this one's.
							var base [2]objective.Vector
							for i := range base {
								for _, o := range ids {
									base[i][o] = scale * (1 + 3*r.Float64())
								}
							}
							k := r.Intn(len(slots) - 1)
							for c := 2 + r.Intn(16); c > 0; c-- {
								v := base[c%2]
								for _, o := range ids {
									v[o] *= 1 + 0.05*r.Float64()
								}
								offer(v, &slots[k+c%2])
							}
						}
						if n >= 300 && !reset {
							reset = true
							hits += fast.HintRejected()
							fast.Reset()
							oracle.Reset()
							if fast.hint != 0 || fast.HintRejected() != 0 || fast.nanSeen {
								t.Fatalf("Reset left hint %d, hint rejections %d, nanSeen %v", fast.hint, fast.HintRejected(), fast.nanSeen)
							}
						}
					}
					hits += fast.HintRejected()
				}
				// The streams must reach what the test is for.
				if hits == 0 {
					t.Error("no hint ever rejected a candidate")
				}
				if nearHits == 0 {
					t.Error("no slot ever rejected a candidate")
				}
				if stale == 0 {
					t.Error("no insert ran with the hint past the end of the archive")
				}
			})
		}
	}
}

// TestScanStartsAtHint: a rejection scan starts at the hinted row and wraps
// around, so of two rows that both reject it finds the one after the hint, not
// the one at row 0 — and writes it into the hint and the caller's slot. A hint
// past the end starts the scan at row 0.
func TestScanStartsAtHint(t *testing.T) {
	for _, tc := range kernelObjSets[1:] { // three objectives and more
		t.Run(tc.name, func(t *testing.T) {
			ids := tc.objs.IDs()
			vec := func(x, y, z float64) (v objective.Vector) {
				for _, o := range ids {
					v[o] = 1
				}
				v[ids[0]], v[ids[1]], v[ids[2]] = x, y, z
				return v
			}
			a := NewFlat(NewFlatConfig(tc.objs, 1))
			for i, v := range []objective.Vector{vec(1, 5, 5), vec(5, 1, 9), vec(5, 5, 1)} {
				if !a.Insert(v, plan.Entry{Op: int32(i)}) {
					t.Fatalf("row %d not stored", i)
				}
			}
			near := int32(0)
			offer := func(v objective.Vector, wantRow int) {
				t.Helper()
				if a.InsertRowNear(&v, plan.Entry{}, &near) {
					t.Fatalf("%v stored", v.FormatOn(tc.objs))
				}
				if a.hint != wantRow*stride || int(near) != wantRow {
					t.Fatalf("%v: hint on row %d, slot on row %d, want both on row %d", v.FormatOn(tc.objs), a.hint/stride, near, wantRow)
				}
			}
			offer(vec(6, 2, 10), 1) // only row 1 rejects: the hint moves there
			offer(vec(5, 5, 5), 2)  // rows 0 and 2 reject: the scan from row 1 meets row 2
			if a.HintRejected() != 0 {
				t.Fatalf("%d candidates rejected without a scan, want none", a.HintRejected())
			}
			// Evict rows 1 and 2: two rows are left and the hint names a third.
			if !a.Insert(vec(4.5, 0.5, 0.5), plan.Entry{}) || a.Len() != 2 || a.hint != 2*stride {
				t.Fatalf("len %d, hint %d after the eviction, want 2 and %d", a.Len(), a.hint, 2*stride)
			}
			near = 7
			offer(vec(5, 5, 5), 0) // both rows reject: a scan from row 0 meets row 0
		})
	}
}

// TestRejectsAllIsTheHintTest: on twin archives fed one stream with locality,
// RejectsAll(v, n) on one is held against n InsertRow(v) on the other. A yes
// must leave the twins indistinguishable — n rejections, n of them the
// hint's, the hint where it was, contents untouched — and a no must leave the
// archive exactly as it was, whether or not a scan would have found a
// rejecting row: it is the hint test and nothing else — no slot, no scan (the
// gate's second row is RejectsAllNear's; TestGateAsksHintThenSlot holds the
// pair). A NaN in the offered vector is always a no, where InsertRow's hint
// test lets it through.
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
							if group.rejectingRow(&th, group.cfg.kind) >= 0 {
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

// TestGateAsksHintThenSlot: on twin archives fed one stream with locality, the
// gate — RejectsAll(v, n), and on its no RejectsAllNear(v, n, slot) — on one is
// held against n InsertRowNear(v, slot) on the other. A yes from either row
// must leave the twins indistinguishable: n rejections, all n without a scan,
// nothing stored, the hint where it was (RejectsAll) or on the slot's row
// (RejectsAllNear) on both. A no from both must leave the archive and the slot
// exactly as they were, whether or not a scan would have found a rejecting
// row: the gate is two row tests and nothing else. A NaN in the offered vector
// is always a no, where InsertRowNear's hint tests let it through.
func TestGateAsksHintThenSlot(t *testing.T) {
	for _, tc := range kernelObjSets {
		ids := tc.objs.IDs()
		for _, hc := range hintConfigs(tc.objs) {
			t.Run(tc.name+"/"+hc.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(77))
				group, single := NewFlat(hc.build()), NewFlat(hc.build())
				var gslots, sslots [4]int32
				byHint, bySlot, no, scanOnly := 0, 0, 0, 0
				for i := 0; i < 200; i++ {
					// Four bases with a slot each, their near-copies taking
					// turns, as the inner plans of a split do.
					var base [4]objective.Vector
					for b := range base {
						for _, o := range ids {
							base[b][o] = 1 + 3*r.Float64()
						}
					}
					for c := 4 * (1 + r.Intn(6)); c > 0; c-- {
						k := c % len(base)
						v := base[k]
						for _, o := range ids {
							v[o] *= 1 + 0.05*r.Float64()
						}
						n := 1 + r.Intn(4)
						before, slotBefore := *group, gslots
						switch {
						case group.RejectsAll(&v, n):
							byHint++
							if group.hint != before.hint {
								t.Fatal("RejectsAll moved the hint")
							}
						case group.RejectsAllNear(&v, n, &gslots[k]):
							bySlot++
							if group.hint != nearOffset(&gslots[k]) {
								t.Fatal("RejectsAllNear said yes and left the hint off the slot's row")
							}
						default:
							no++
							if group.rejected != before.rejected || group.hintRejected != before.hintRejected || group.hint != before.hint {
								t.Fatal("the gate said no and counted or moved the hint")
							}
							var th [stride]float64
							group.cfg.thresholds(&v, &th)
							if group.rejectingRow(&th, group.cfg.kind) >= 0 {
								scanOnly++
							}
						}
						if group.inserted != before.inserted || group.evicted != before.evicted || gslots != slotBefore {
							t.Fatal("the gate moved a counter that is not its own, or a slot")
						}
						if group.rejected != before.rejected {
							if group.rejected != before.rejected+n || group.hintRejected != before.hintRejected+n {
								t.Fatalf("the gate said yes to %d and counted %d rejected, %d without a scan",
									n, group.rejected-before.rejected, group.hintRejected-before.hintRejected)
							}
							for j := 0; j < n; j++ {
								if single.InsertRowNear(&v, plan.Entry{}, &sslots[k]) {
									t.Fatalf("the gate said yes to %v, InsertRowNear stored it", v.FormatOn(tc.objs))
								}
							}
						}
						if d := diffArchives(group, single); d != "" || group.hintRejected != single.hintRejected || group.hint != single.hint || gslots != sslots {
							t.Fatalf("twins differ after the gate: %s (hint %d/%d, answered without a scan %d/%d, slots %v/%v)",
								d, group.hint, single.hint, group.hintRejected, single.hintRejected, gslots, sslots)
						}
						nan := v
						nan[ids[len(ids)-1]] = math.NaN()
						if group.RejectsAll(&nan, n) || group.RejectsAllNear(&nan, n, &gslots[k]) {
							t.Fatal("the gate said yes to a NaN")
						}
						group.InsertRowNear(&v, plan.Entry{}, &gslots[k])
						single.InsertRowNear(&v, plan.Entry{}, &sslots[k])
					}
				}
				// The stream must reach all four answers.
				if byHint == 0 || bySlot == 0 || no == 0 || scanOnly == 0 {
					t.Errorf("%d yes by the hint, %d by the slot, %d no, %d of them where a scan would have rejected: want all four",
						byHint, bySlot, no, scanOnly)
				}
			})
		}
	}
}

// fuzzCost maps one fuzz byte to a cost: a coarse grid, so that ties,
// duplicates and dominance are common, with zero, NaN and both infinities at
// the ends. Overflowed statistics do produce NaN costs (core's
// TestOverflowMatchesReference), and on a NaN "r <= t" (the two- to four-wide
// kernels) and "no objective with >" (the generic loops, the oracle) are
// different questions: an archive that met one must scan through the latter.
func fuzzCost(b byte) float64 {
	switch b {
	case 0:
		return 0
	case 253:
		return math.NaN()
	case 254:
		return math.Inf(-1)
	case 255:
		return math.Inf(1)
	}
	return float64(b) / 8
}

// FuzzFlatInsert: arbitrary bytes become an objective width, a scalar alpha
// or a per-objective precision vector, and a stream of inserts, each a cost
// per active objective and one byte naming its second hint: the low three bits
// pick one of eight slots — two start on rows no archive has, the others are
// left wherever earlier scans put them, stale after every eviction — and a set
// top bit first overwrites the slot with a row index of the fuzzer's own. Twin
// archives take the stream through InsertRowNear and through insertGeneric and
// must agree on every observable after every insert. The seeds are the files
// under testdata/fuzz/FuzzFlatInsert.
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
		slots := [8]int32{6: 1 << 20, 7: -1}
		data = data[2:]
		for n := 0; len(data) > len(ids); n++ {
			var v objective.Vector
			for k, o := range ids {
				v[o] = fuzzCost(data[k])
			}
			key := data[len(ids)]
			data = data[len(ids)+1:]
			near := &slots[key&7]
			if key&0x80 != 0 {
				*near = int32(key >> 3 & 0xf)
			}
			e := plan.Entry{Op: int32(n)}
			if gotF, gotO := fast.InsertRowNear(&v, e, near), oracle.insertGeneric(v, e); gotF != gotO {
				t.Fatalf("insert %d (%v): stored=%v, oracle stored=%v", n, v.FormatOn(objs), gotF, gotO)
			}
			if d := diffArchives(fast, oracle); d != "" {
				t.Fatalf("insert %d (%v): %s", n, v.FormatOn(objs), d)
			}
		}
	})
}

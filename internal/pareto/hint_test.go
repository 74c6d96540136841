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
// the three counters, cost rows bit for bit and entries, both in storage
// order — and describes the first difference ("" for none). It reads a
// ranked archive in place (storageOrder) rather than sealing it, so that a
// stream keeps its archive ranked from insert to insert. HintRejected is
// deliberately not compared: the oracle side has no hint.
func diffArchives(fast, oracle *FlatArchive) string {
	if fast.Len() != oracle.Len() {
		return fmt.Sprintf("len %d, oracle %d", fast.Len(), oracle.Len())
	}
	fi, fr, fe := fast.Stats()
	oi, or, oe := oracle.Stats()
	if fi != oi || fr != or || fe != oe {
		return fmt.Sprintf("counters (ins=%d rej=%d ev=%d), oracle (ins=%d rej=%d ev=%d)", fi, fr, fe, oi, or, oe)
	}
	fo, oo := storageOrder(fast), storageOrder(oracle)
	for i := range fo {
		f, o := fo[i], oo[i]
		for k := 0; k < stride; k++ {
			if x, y := fast.costs[f*stride+k], oracle.costs[o*stride+k]; math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Sprintf("row %d objective %d: %v, oracle %v", i, k, x, y)
			}
		}
		if fast.recs[f].entry() != oracle.recs[o].entry() {
			return fmt.Sprintf("entry %d: %+v, oracle %+v", i, fast.recs[f].entry(), oracle.recs[o].entry())
		}
	}
	return ""
}

// storageOrder lists the rows of a in storage order, by where they stand now.
// A ranked archive's insertion sequences are distinct and below inserted, so
// its rows are scattered into a table indexed by sequence and read back in
// order.
func storageOrder(a *FlatArchive) []int {
	order := make([]int, a.Len())
	if !a.ranked {
		for i := range order {
			order[i] = i
		}
		return order
	}
	bySeq := make([]int, a.inserted)
	for i := range bySeq {
		bySeq[i] = -1
	}
	for i := range order {
		bySeq[a.recs[i].seq] = i
	}
	order = order[:0]
	for _, i := range bySeq {
		if i >= 0 {
			order = append(order, i)
		}
	}
	return order
}

// indexDiff checks the rank order of a ranked archive against its rows and
// describes the first difference ("" for none): each row's key must be its
// key recomputed — the active-objective sum added in ids order from zero, or
// two-wide the first active objective — bit for bit, three or more wide its
// signature its signature recomputed, the keys must ascend, and no two rows
// may share an insertion sequence. A sealed archive has its rows in storage
// order instead, and a generic one keeps no sequences.
func indexDiff(a *FlatArchive) string {
	if a.generic {
		return ""
	}
	if !a.ranked {
		for i := 1; i < a.Len(); i++ {
			if a.recs[i-1].seq >= a.recs[i].seq {
				return fmt.Sprintf("sealed rows %d and %d out of storage order", i-1, i)
			}
		}
		return ""
	}
	ids, n := a.cfg.ids, a.Len()
	seqs := map[int32]bool{}
	for i := 0; i < n; i++ {
		row := a.costs[i*stride : i*stride+stride]
		want := 0.0
		if len(ids) == 2 {
			want = row[ids[0]]
		} else {
			for _, o := range ids {
				want += row[o]
			}
		}
		if got := a.recs[i].key; math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Sprintf("rank %d: key %v, recomputed %v", i, got, want)
		}
		if got, want := a.recs[i].sig, a.cfg.signature((*objective.Vector)(row)); a.cfg.sigBits != 0 && got != want {
			return fmt.Sprintf("rank %d: signature %#x, recomputed %#x", i, got, want)
		}
		if i > 0 && !(a.recs[i-1].key <= a.recs[i].key) {
			return fmt.Sprintf("ranks %d and %d out of order: keys %v, %v", i-1, i, a.recs[i-1].key, a.recs[i].key)
		}
		if seqs[a.recs[i].seq] {
			return fmt.Sprintf("rank %d repeats sequence %d", i, a.recs[i].seq)
		}
		seqs[a.recs[i].seq] = true
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
						if n%97 == 50 {
							fast.Seal() // the next insert ranks the rows again
						}
						hint, answered := fast.hint, fast.hintRejected
						e := plan.Entry{Op: int32(n)}
						gotF, gotO := fast.InsertRowNear(&v, e, near), oracle.insertGeneric(v, e)
						if gotF != gotO {
							t.Fatalf("seed %d insert %d: stored=%v, oracle stored=%v", seed, n, gotF, gotO)
						}
						if d := diffArchives(fast, oracle) + indexDiff(fast); d != "" {
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
							if fast.hint != 0 || fast.HintRejected() != 0 || fast.generic {
								t.Fatalf("Reset left hint %d, hint rejections %d, generic %v", fast.hint, fast.HintRejected(), fast.generic)
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

// scanRejects reports whether some stored row of a approximately dominates v:
// the oracle's whole-archive scan, which moves nothing.
func scanRejects(a *FlatArchive, v *objective.Vector) bool {
	var t [stride]float64
	a.cfg.thresholds(v, &t)
	return anyRowLeqGeneric(a.costs, a.cfg.ids, &t) >= 0
}

// TestScanStartsAtHint: an insert asks the hinted row first and the slot's
// row second, and only on a miss of both scans — from the sum index's
// boundary down, so of two rows that both reject a candidate the scan finds
// the one with the larger sum, and a row whose sum is above the thresholds' is
// never a witness. Whatever answers writes its row into the hint, and a scan's
// also into the caller's slot (both name the row where it stands: the rows are
// in rank order while the archive fills).
func TestScanStartsAtHint(t *testing.T) {
	for _, tc := range kernelObjSets[1:] { // three objectives and more: sums
		t.Run(tc.name, func(t *testing.T) {
			ids := tc.objs.IDs()
			vec := func(x, y, z float64) (v objective.Vector) {
				for _, o := range ids {
					v[o] = 1
				}
				v[ids[0]], v[ids[1]], v[ids[2]] = x, y, z
				return v
			}
			rows := []objective.Vector{vec(1, 5, 5), vec(5, 1, 9), vec(3, 3, 1)} // sums 11, 15, 7 (plus the ones)
			a := NewFlat(NewFlatConfig(tc.objs, 1))
			for i, v := range rows {
				if !a.Insert(v, plan.Entry{Op: int32(i)}) {
					t.Fatalf("row %d not stored", i)
				}
			}
			at := func(row int) int32 { // where stored row `row` stands
				for i := 0; i < a.Len(); i++ {
					if *(*objective.Vector)(a.costs[i*stride:]) == rows[row] {
						return int32(i)
					}
				}
				t.Fatalf("row %d not found", row)
				return -1
			}
			near := int32(0)
			offer := func(v objective.Vector, wantRow int, scanned bool) {
				t.Helper()
				answered := a.HintRejected()
				if a.InsertRowNear(&v, plan.Entry{}, &near) {
					t.Fatalf("%v stored", v.FormatOn(tc.objs))
				}
				if a.hint != int(at(wantRow))*stride {
					t.Fatalf("%v: hint on %v, want %v", v.FormatOn(tc.objs),
						(*objective.Vector)(a.costs[a.hint:]).FormatOn(tc.objs), rows[wantRow].FormatOn(tc.objs))
				}
				if scanned && (near != at(wantRow) || a.HintRejected() != answered) {
					t.Fatalf("%v: slot on %d, %d answered without a scan; want a scan that found row %d", v.FormatOn(tc.objs), near, a.HintRejected()-answered, wantRow)
				}
				if !scanned && a.HintRejected() != answered+1 {
					t.Fatalf("%v: scanned, want it answered by the hint or the slot", v.FormatOn(tc.objs))
				}
			}
			offer(vec(6, 2, 10), 1, true) // only row 1 rejects: the hint moves there
			offer(vec(5, 5, 5), 0, true)  // rows 0 and 2 reject: the scan meets row 0, the larger sum, first
			offer(vec(5, 5, 5), 0, false) // the hint answers
			a.hint, near = int(at(1))*stride, at(2)
			offer(vec(5, 5, 5), 2, false) // the hint misses, the slot answers, before any scan
			a.hint, near = int(at(1))*stride, at(1)
			offer(vec(3, 3, 1.5), 2, true) // row 2 alone rejects; rows 0 and 1 sum above the thresholds
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
							if scanRejects(group, &v) {
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
							if scanRejects(group, &v) {
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

// fuzzCostWide is fuzzCost's other table, for sums that overflow: a cost of
// b*1e306 (two of 90 or more already sum to +Inf, one of 180 is +Inf), with a
// negative zero for 0 and NaN and both infinities at the ends.
func fuzzCostWide(b byte) float64 {
	if b == 0 {
		return math.Copysign(0, -1)
	}
	if b >= 253 {
		return fuzzCost(b)
	}
	return float64(b) * 1e306
}

// fuzzCostEdge is the table of the signatures' bucket edges (bucketEdges),
// byte b naming edge b modulo their count.
func fuzzCostEdge(b byte) float64 { return bucketEdges[int(b)%len(bucketEdges)] }

// FuzzFlatInsert: arbitrary bytes become an objective width (the first byte's
// low seven bits), a scalar alpha or a per-objective precision vector, a cost
// table (fuzzCost, with bit 6 of the second byte fuzzCostWide, with the first
// byte's top bit fuzzCostEdge), and a stream of inserts, each a cost
// per active objective and one byte naming its second hint: the low three bits
// pick one of eight slots — two start on rows no archive has, the others are
// left wherever earlier scans put them, stale after every eviction — a set
// top bit first overwrites the slot with a row index of the fuzzer's own, and
// bits 3 to 6 all set seal the archive first (the insert ranks it again) — or,
// with the top bit set too, close it and go on in a fresh neighbour opened in
// the same arena (its first chunk four rows, so that archives outgrow their
// room and take fresh chunks), with a fresh oracle beside it. Twin archives
// take the stream through InsertRowNear and through insertGeneric and must
// agree on every observable after every insert, the indexed archive's sum
// index must order exactly its stored rows (indexDiff), and every archive
// closed so far must read as it did when it was closed, len == cap. The seeds
// are the files under testdata/fuzz/FuzzFlatInsert.
func FuzzFlatInsert(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		objs := kernelObjSets[int(data[0]&0x7f)%len(kernelObjSets)].objs
		ids := objs.IDs()
		// Low six bits: alpha in [1, 2.97]; bit 6: the wide cost table; top
		// bit: vary alpha per objective.
		alpha := 1 + float64(data[1]&0x3f)/32
		cost := fuzzCost
		if data[1]&0x40 != 0 {
			cost = fuzzCostWide
		}
		if data[0]&0x80 != 0 {
			cost = fuzzCostEdge
		}
		newCfg := func() *FlatConfig { return NewFlatConfig(objs, alpha) }
		if data[1]&0x80 != 0 {
			prec := objective.UniformPrecision(1, objs)
			for k, o := range ids {
				prec = prec.With(o, 1+(alpha-1)*float64(k%3)/2)
			}
			newCfg = func() *FlatConfig { return NewFlatPrecisionConfig(objs, prec) }
		}
		ar := &MakeArenas(1, 4)[0]
		fast, oracle := new(FlatArchive), NewFlat(newCfg())
		ar.Open(fast, newCfg())
		var closed []*FlatArchive
		var images []closedImage
		slots := [8]int32{6: 1 << 20, 7: -1}
		data = data[2:]
		for n := 0; len(data) > len(ids); n++ {
			var v objective.Vector
			for k, o := range ids {
				v[o] = cost(data[k])
			}
			key := data[len(ids)]
			data = data[len(ids)+1:]
			near := &slots[key&7]
			if key&0x80 != 0 {
				*near = int32(key >> 3 & 0xf)
			}
			switch {
			case key&0xf8 == 0xf8:
				ar.Close(fast)
				closed, images = append(closed, fast), append(images, imageOf(fast))
				fast, oracle = new(FlatArchive), NewFlat(newCfg())
				ar.Open(fast, newCfg())
			case key&0x78 == 0x78:
				fast.Seal()
			}
			e := plan.Entry{Op: int32(n)}
			if gotF, gotO := fast.InsertRowNear(&v, e, near), oracle.insertGeneric(v, e); gotF != gotO {
				t.Fatalf("insert %d (%v): stored=%v, oracle stored=%v", n, v.FormatOn(objs), gotF, gotO)
			}
			if d := diffArchives(fast, oracle) + indexDiff(fast); d != "" {
				t.Fatalf("insert %d (%v): %s", n, v.FormatOn(objs), d)
			}
			for i, a := range closed {
				if d := images[i].changed(a); d != "" {
					t.Fatalf("insert %d (%v): closed archive %d: %s", n, v.FormatOn(objs), i, d)
				}
			}
		}
	})
}

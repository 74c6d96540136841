package costmodel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// These tests verify what the engine's gates in front of the archives (core's
// worker.joinPairs) take from MinTerms: applied to any pair of child cost
// vectors, the folded terms cost no more than any of the folded operator's DOP
// variants, on any objective; and applied to the column minima of two sets of
// child vectors, no more than any variant over any pair of members, which is
// what lets one test stand for a whole run of sub-plan pairs. Like PONO both
// follow from the formulas' family — sums, maxima and products of
// non-negative values are monotone in each operand, in floating point too,
// and so is 1-(1-a)(1-b) for the tuple loss, a ratio in [0, 1] — so they have
// to hold by construction, for every split and far outside the statistics a
// real catalog produces.

// TestMinTermsBoundsEveryDOP checks the bound on the engine's own inputs:
// every connected split of the oracle's TPC-H and chain/star/cycle queries,
// each operator, the DOPs folded as the engine folds them (1..MaxDOP for
// every MaxDOP the options allow), and child vectors from all zeros to all
// +Inf. At the default MaxDOP it takes sets of those children too — a NaN
// row among them — folds each to its column minima and holds the floor over
// two sets' minima under every variant over every pair of their members (a
// NaN on either side excepted, when a set has the NaN row), then drives the
// archive's run gate with the floors of all three operators (runGate).
func TestMinTermsBoundsEveryDOP(t *testing.T) {
	var inf, nan objective.Vector
	for o := range inf {
		inf[o] = math.Inf(1)
		nan[o] = math.NaN()
	}
	inf[objective.TupleLoss] = 1 // a ratio: the loss formula leaves [0,1] only on garbage
	cfg := pareto.NewFlatConfig(objective.AllSet(), 1.2)
	for _, q := range oracleQueries(t) {
		r := rand.New(rand.NewSource(int64(q.NumRelations())))
		m := NewDefault(q)
		children := append(oracleChildren(r, m.p), inf, nan) // zeros, small, large, budget, +Inf, NaN
		const nanChild = 5
		sets := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {0, 1}, {1, 2, 4}, {2, 3}, {1, 5}, {0, 1, 2, 3, 4, 5}}
		mins := make([]objective.Vector, len(sets))
		for i, set := range sets {
			mins[i] = children[set[0]]
			for _, c := range set[1:] {
				for o := range mins[i] {
					mins[i][o] = min(mins[i][o], children[c][o])
				}
			}
		}
		var cands []objective.Vector
		eachConnectedSplit(q, func(left, right query.TableSet) {
			var terms [3][plan.MaxDOP]JoinTerms
			for g, alg := range storedJoinAlgs {
				for dop := 1; dop <= plan.MaxDOP; dop++ {
					terms[g][dop-1] = m.PrepareJoin(alg, dop, left, right)
				}
				if one := MinTerms(terms[g][2:3]); one != terms[g][2] {
					t.Fatalf("%s %v %v|%v: MinTerms of one term changed it", q.Name, alg, left, right)
				}
				for maxDOP := 2; maxDOP <= plan.MaxDOP; maxDOP++ {
					floor := MinTerms(terms[g][:maxDOP])
					for i := range children[:nanChild] {
						for j := range children[:nanChild] {
							cl, cr := &children[i], &children[j]
							f := floor.Apply(cl, cr)
							for k := range terms[g][:maxDOP] {
								v := terms[g][k].Apply(cl, cr)
								for o := range v {
									if !(f[o] <= v[o]) {
										t.Fatalf("%s %v %v|%v: floor of DOP 1..%d exceeds DOP %d on %v:\nfloor %v\ncost  %v",
											q.Name, alg, left, right, maxDOP, k+1, objective.ID(o), f, v)
									}
								}
							}
						}
					}
				}
			}
			var folded [3]JoinTerms
			for g := range folded {
				folded[g] = MinTerms(terms[g][:])
			}
			for li, ls := range sets {
				for ri, rs := range sets {
					hasNaN := slices.Contains(ls, nanChild) || slices.Contains(rs, nanChild)
					var floors [3]objective.Vector
					for g := range folded {
						floors[g] = folded[g].Apply(&mins[li], &mins[ri])
					}
					cands = cands[:0]
					for _, i := range ls {
						for _, j := range rs {
							for g := range terms {
								for k := range terms[g] {
									v := terms[g][k].Apply(&children[i], &children[j])
									for o := range v {
										if !(floors[g][o] <= v[o]) && !(hasNaN && (math.IsNaN(floors[g][o]) || math.IsNaN(v[o]))) {
											t.Fatalf("%s %v %v|%v: floor over the minima of children %v and %v exceeds DOP %d over %d|%d on %v:\nfloor %v\ncost  %v",
												q.Name, storedJoinAlgs[g], left, right, ls, rs, k+1, i, j, objective.ID(o), floors[g], v)
										}
									}
									cands = append(cands, v)
								}
							}
						}
					}
					// The tightest row that covers all three floors: the gate
					// must say yes to it unless a floor has a NaN.
					tight := floors[0]
					for _, f := range floors[1:] {
						for o := range tight {
							tight[o] = min(tight[o], f[o])
						}
					}
					if yes := runGate(t, cfg, []objective.Vector{tight}, floors[:], cands); yes == hasNaN {
						t.Fatalf("%s %v|%v, children %v and %v: the run gate said %v on the floors' own minimum %v",
							q.Name, left, right, ls, rs, yes, tight)
					}
				}
			}
		})
	}
}

// runGate drives the archive side of the engine's block tiers (core's
// worker.rejectsRun) on twin archives that both store rows: the first asks
// its hinted row to cover every one of floors (HintCovers on all but the
// last, RejectsAll on the last for all of cands). On a yes each candidate,
// which the caller has checked to lie on or above its floor, is offered to
// the twin by InsertRow and must be rejected on the hint test; the twins must
// end with the same rows and counters, len(cands) rejections more than they
// started with, every one without a scan. A no must have counted nothing. It
// reports the gate's answer.
func runGate(t *testing.T, cfg *pareto.FlatConfig, rows, floors, cands []objective.Vector) bool {
	t.Helper()
	group, single := pareto.NewFlat(cfg), pareto.NewFlat(cfg)
	for _, a := range []*pareto.FlatArchive{group, single} {
		for _, r := range rows {
			a.Insert(r, plan.Entry{})
		}
	}
	stored := group.Len()
	_, base, _ := group.Stats()
	answered := group.HintRejected()
	last := len(floors) - 1
	yes := true
	for g := range floors[:last] {
		if !group.HintCovers(&floors[g]) {
			yes = false
			break
		}
	}
	if yes && !group.RejectsAll(&floors[last], len(cands)) {
		yes = false
	}
	if !yes {
		if _, rej, _ := group.Stats(); rej != base || group.HintRejected() != answered {
			t.Fatal("the run gate said no and counted")
		}
		return false
	}
	for _, f := range floors {
		for o := range f {
			if math.IsNaN(f[o]) || math.IsNaN(cfg.Alpha()) {
				t.Fatalf("the run gate accepted a NaN on %v: floor %v alpha %v", objective.ID(o), f, cfg.Alpha())
			}
		}
	}
	for i := range cands {
		h := single.HintRejected()
		if single.InsertRow(&cands[i], plan.Entry{}) || single.HintRejected() != h+1 {
			t.Fatalf("the run gate covered floors %v, yet candidate %d of %d, %v, was not rejected on the hint",
				floors, i, len(cands), cands[i])
		}
	}
	for name, a := range map[string]*pareto.FlatArchive{"one by one": single, "the run gate": group} {
		if _, rej, _ := a.Stats(); a.Len() != stored || rej-base != len(cands) || a.HintRejected()-answered != len(cands) {
			t.Fatalf("%s: %d rows, %d rejected, %d of them without a scan; want %d rows and %d of each",
				name, a.Len(), rej-base, a.HintRejected()-answered, stored, len(cands))
		}
	}
	return true
}

// floats reads non-negative float64s off a fuzz input, eight bytes each with
// the sign bit dropped — every finite value, +Inf and NaN are reachable —
// wrapping around when the input runs short.
type floats struct {
	data []byte
	at   int
}

func (f *floats) next() float64 {
	var b [8]byte
	for i := range b {
		b[i] = f.data[f.at%len(f.data)]
		f.at++
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]) &^ (1 << 63))
}

func (f *floats) vector() (v objective.Vector) {
	for o := range v {
		v[o] = f.next()
	}
	return v
}

func (f *floats) terms(alg plan.JoinAlg, dop int) JoinTerms {
	return JoinTerms{
		Alg: alg, DOP: dop,
		d: f.next(), startup: f.next(), cpuMs: f.next(), work: f.next(), coord: f.next(), ownIO: f.next(),
		energy: f.next(), disk: f.next(), buildCPU: f.next(), probeTime: f.next(), sortLTime: f.next(),
		sortRTime: f.next(), outCPU: f.next(), blocks: f.next(), bufL: f.next(), bufR: f.next(),
	}
}

// FuzzMinTermsFloor drives the gates' two halves together over arbitrary
// non-negative terms, child vectors and two stored rows — the archive's hint
// on the first, the caller's slot on either or past the end: whenever an
// archive answers yes for the floor of a DOP group, from either row
// (RejectsAll, then RejectsAllNear), an archive in the same state and with the
// same slot must reject every variant of the group without a scan — so NaNs
// and infinities anywhere (a NaN term makes the floor NaN; 0×Inf makes one out
// of finite terms; a NaN alpha makes every threshold one) may only ever make
// the gate say no.
//
// Then the block tiers' gate: the two child vectors are the first members of
// two sets of up to eight (sizes: the low three bits and the next three count
// the rows drawn for each; bit 6 adds an all-zero row to the inner set, bit 7
// an all-+Inf one to the outer), their tuple loss folded into [0, 1]. The
// floors of all three operators over the sets' column minima must lie under
// every variant over every pair of members, on every objective, or one of the
// two be NaN there; and a yes of the run gate over them must mean that each
// of those candidates, offered one by one, is rejected on the hint test
// (runGate). onFloor stores the floors' own minimum there, the tightest row
// that covers them all.
func FuzzMinTermsFloor(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(1, 2, 3), uint8(0), uint8(4), 1.5, false, uint8(0), uint8(0))
	f.Add(seed(0), uint8(1), uint8(2), 1.0, true, uint8(1), uint8(0o11))
	f.Add(seed(math.Inf(1), 0, 7), uint8(2), uint8(3), 1.2, true, uint8(1), uint8(0o322))
	f.Add(seed(math.NaN(), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), uint8(0), uint8(4), 2.0, true, uint8(0), uint8(0o12))
	f.Add(seed(math.NaN(), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), uint8(0), uint8(4), 2.0, true, uint8(5), uint8(0o77))
	f.Add(seed(1e308, 1e-308, 0.5, 1e300), uint8(1), uint8(4), 1.01, true, uint8(2), uint8(0o233))
	f.Add(seed(3, 1, 2), uint8(1), uint8(4), math.NaN(), true, uint8(4), uint8(0o21))
	f.Add(seed(2, 0.5, 8, 1, 0, 3, math.Inf(1), 0.25, 5), uint8(2), uint8(3), 1.5, true, uint8(0), uint8(0o377))
	// onFloor stores the floor itself as one of the two rows, the tightest row
	// that rejects it; otherwise both rows are as arbitrary as the rest. rows
	// picks which of the two is stored first (the hint's: bit 2) and what the
	// slot names (row 0, row 1, no row: the low two bits).
	f.Fuzz(func(t *testing.T, data []byte, algCode, n uint8, alpha float64, onFloor bool, rows, sizes uint8) {
		if len(data) == 0 || alpha < 1 || math.IsInf(alpha, 1) {
			return
		}
		in := &floats{data: data}
		dops := 1 + int(n)%plan.MaxDOP
		var all [3][]JoinTerms
		for g, alg := range storedJoinAlgs {
			all[g] = make([]JoinTerms, dops)
			for k := range all[g] {
				all[g][k] = in.terms(alg, k+1)
			}
		}
		alg := storedJoinAlgs[int(algCode)%len(storedJoinAlgs)]
		terms := all[int(algCode)%len(storedJoinAlgs)]
		cl, cr, row, other := in.vector(), in.vector(), in.vector(), in.vector()
		outer, inner := []objective.Vector{cl}, []objective.Vector{cr}
		for range sizes & 7 {
			outer = append(outer, in.vector())
		}
		for range sizes >> 3 & 7 {
			inner = append(inner, in.vector())
		}
		cfg := pareto.NewFlatConfig(objective.AllSet(), alpha)
		runFloors(t, all, outer, inner, sizes, cfg, onFloor, rows&4 != 0, row, other)

		folded := MinTerms(terms)
		floor := folded.Apply(&cl, &cr)
		if onFloor {
			row = floor
		}
		if rows&4 != 0 {
			row, other = other, row
		}

		group, single := pareto.NewFlat(cfg), pareto.NewFlat(cfg)
		for _, a := range []*pareto.FlatArchive{group, single} {
			a.Insert(row, plan.Entry{})
			a.Insert(other, plan.Entry{}) // may be rejected, or evict row: then one row is stored
		}
		stored := group.Len()
		_, base, _ := group.Stats()
		answered := group.HintRejected()
		gnear, snear := int32(rows&3), int32(rows&3)

		// The row that says yes holds no NaN, nor does the floor or alpha.
		asked := -1
		switch {
		case group.RejectsAll(&floor, len(terms)):
			asked = 0
		case group.RejectsAllNear(&floor, len(terms), &gnear):
			asked = int(gnear)
		default:
			return
		}
		if asked >= stored {
			t.Fatalf("a row the archive does not have said yes: row %d of %d", asked, stored)
		}
		yes := group.CostAt(int32(asked))
		for o := range floor {
			if math.IsNaN(floor[o]) || math.IsNaN(yes[o]) || math.IsNaN(alpha) {
				t.Fatalf("the gate accepted a NaN on %v: row %v floor %v alpha %v", objective.ID(o), yes, floor, alpha)
			}
		}
		for k := range terms {
			v := terms[k].Apply(&cl, &cr)
			if single.InsertRowNear(&v, plan.Entry{}, &snear) {
				t.Fatalf("row %v rejects the floor %v of %d %v variants at alpha %v, yet DOP %d was stored: %v",
					yes, floor, len(terms), alg, alpha, k+1, v)
			}
		}
		if gnear != snear || group.Len() != stored || single.Len() != stored {
			t.Fatalf("slots %d/%d, %d/%d rows stored, want the slot unmoved and %d rows", gnear, snear, group.Len(), single.Len(), stored)
		}
		for name, a := range map[string]*pareto.FlatArchive{"one by one": single, "the gate": group} {
			if _, rej, _ := a.Stats(); rej-base != len(terms) || a.HintRejected()-answered != len(terms) {
				t.Fatalf("%s: %d rejected, %d of them without a scan, want %d of each",
					name, rej-base, a.HintRejected()-answered, len(terms))
			}
		}
	})
}

// runFloors is FuzzMinTermsFloor's block half: it completes the two child
// sets (sizes bits 6 and 7), folds each to its column minima, holds the three
// operators' floors over them under every candidate the sets' members make,
// and drives runGate with row and other stored (the floors' minimum in place
// of row when onFloor; swapped when swap).
func runFloors(t *testing.T, all [3][]JoinTerms, outer, inner []objective.Vector, sizes uint8,
	cfg *pareto.FlatConfig, onFloor, swap bool, row, other objective.Vector) {
	t.Helper()
	if sizes&64 != 0 {
		inner = append(inner, objective.Vector{})
	}
	if sizes&128 != 0 {
		var inf objective.Vector
		for o := range inf {
			inf[o] = math.Inf(1)
		}
		outer = append(outer, inf)
	}
	fold := func(set []objective.Vector) (m objective.Vector) {
		for i := range set {
			// A sub-plan's tuple loss is a ratio; 1-(1-a)(1-b) is monotone
			// only there. 1/x takes (1, +Inf] into [0, 1).
			if tl := &set[i][objective.TupleLoss]; *tl > 1 {
				*tl = 1 / *tl
			}
		}
		m = set[0]
		for _, v := range set[1:] {
			for o := range m {
				m[o] = min(m[o], v[o])
			}
		}
		return m
	}
	lmin, rmin := fold(outer), fold(inner)
	var floors [3]objective.Vector
	for g := range all {
		folded := MinTerms(all[g])
		floors[g] = folded.Apply(&lmin, &rmin)
	}
	var cands []objective.Vector
	for i := range outer {
		for j := range inner {
			for g := range all {
				for k := range all[g] {
					v := all[g][k].Apply(&outer[i], &inner[j])
					for o := range v {
						if f := floors[g][o]; !(f <= v[o]) && !math.IsNaN(f) && !math.IsNaN(v[o]) {
							t.Fatalf("%v floor over the minima exceeds DOP %d over members %d|%d on %v:\nfloor %v\ncost  %v\nouter %v\ninner %v",
								storedJoinAlgs[g], k+1, i, j, objective.ID(o), floors[g], v, outer, inner)
						}
					}
					cands = append(cands, v)
				}
			}
		}
	}
	if onFloor {
		row = floors[0]
		for _, f := range floors[1:] {
			for o := range row {
				row[o] = min(row[o], f[o])
			}
		}
	}
	if swap {
		row, other = other, row
	}
	runGate(t, cfg, []objective.Vector{row, other}, floors[:], cands)
}

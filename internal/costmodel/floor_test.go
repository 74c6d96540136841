package costmodel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// These tests verify what the engine's group gate (core's worker.joinPairs)
// takes from MinTerms: applied to any pair of child cost vectors, the folded
// terms cost no more than any of the folded operator's DOP variants, on any
// objective. Like PONO it follows from the formulas' family — sums, maxima
// and products of non-negative values are monotone in each operand, in
// floating point too — so it has to hold by construction, for every split and
// far outside the statistics a real catalog produces.

// TestMinTermsBoundsEveryDOP checks the bound on the engine's own inputs:
// every connected split of the oracle's TPC-H and chain/star/cycle queries,
// each operator, the DOPs folded as the engine folds them (1..MaxDOP for
// every MaxDOP the options allow), and child vectors from all zeros to all
// +Inf.
func TestMinTermsBoundsEveryDOP(t *testing.T) {
	var inf objective.Vector
	for o := range inf {
		inf[o] = math.Inf(1)
	}
	inf[objective.TupleLoss] = 1 // a ratio: the loss formula leaves [0,1] only on garbage
	for _, q := range oracleQueries(t) {
		r := rand.New(rand.NewSource(int64(q.NumRelations())))
		m := NewDefault(q)
		children := append(oracleChildren(r, m.p), inf)
		eachConnectedSplit(q, func(left, right query.TableSet) {
			for _, alg := range storedJoinAlgs {
				var terms [plan.MaxDOP]JoinTerms
				for dop := 1; dop <= plan.MaxDOP; dop++ {
					terms[dop-1] = m.PrepareJoin(alg, dop, left, right)
				}
				if one := MinTerms(terms[2:3]); one != terms[2] {
					t.Fatalf("%s %v %v|%v: MinTerms of one term changed it", q.Name, alg, left, right)
				}
				for maxDOP := 2; maxDOP <= plan.MaxDOP; maxDOP++ {
					floor := MinTerms(terms[:maxDOP])
					for i := range children {
						for j := range children {
							cl, cr := &children[i], &children[j]
							f := floor.Apply(cl, cr)
							for k := range terms[:maxDOP] {
								v := terms[k].Apply(cl, cr)
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
		})
	}
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

// FuzzMinTermsFloor drives the gate's two halves together over arbitrary
// non-negative terms, child vectors and two stored rows — the archive's hint
// on the first, the caller's slot on either or past the end: whenever an
// archive answers yes for the floor of a DOP group, from either row
// (RejectsAll, then RejectsAllNear), an archive in the same state and with the
// same slot must reject every variant of the group without a scan — so NaNs
// and infinities anywhere (a NaN term makes the floor NaN; 0×Inf makes one out
// of finite terms; a NaN alpha makes every threshold one) may only ever make
// the gate say no.
func FuzzMinTermsFloor(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(1, 2, 3), uint8(0), uint8(4), 1.5, false, uint8(0))
	f.Add(seed(0), uint8(1), uint8(2), 1.0, true, uint8(1))
	f.Add(seed(math.Inf(1), 0, 7), uint8(2), uint8(3), 1.2, true, uint8(1))
	f.Add(seed(math.NaN(), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), uint8(0), uint8(4), 2.0, true, uint8(0))
	f.Add(seed(math.NaN(), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), uint8(0), uint8(4), 2.0, true, uint8(5))
	f.Add(seed(1e308, 1e-308, 0.5, 1e300), uint8(1), uint8(4), 1.01, true, uint8(2))
	f.Add(seed(3, 1, 2), uint8(1), uint8(4), math.NaN(), true, uint8(4))
	// onFloor stores the floor itself as one of the two rows, the tightest row
	// that rejects it; otherwise both rows are as arbitrary as the rest. rows
	// picks which of the two is stored first (the hint's: bit 2) and what the
	// slot names (row 0, row 1, no row: the low two bits).
	f.Fuzz(func(t *testing.T, data []byte, algCode, n uint8, alpha float64, onFloor bool, rows uint8) {
		if len(data) == 0 || alpha < 1 || math.IsInf(alpha, 1) {
			return
		}
		in := &floats{data: data}
		alg := storedJoinAlgs[int(algCode)%len(storedJoinAlgs)]
		terms := make([]JoinTerms, 1+int(n)%plan.MaxDOP)
		for k := range terms {
			terms[k] = in.terms(alg, k+1)
		}
		cl, cr, row, other := in.vector(), in.vector(), in.vector(), in.vector()
		folded := MinTerms(terms)
		floor := folded.Apply(&cl, &cr)
		if onFloor {
			row = floor
		}
		if rows&4 != 0 {
			row, other = other, row
		}

		cfg := pareto.NewFlatConfig(objective.AllSet(), alpha)
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

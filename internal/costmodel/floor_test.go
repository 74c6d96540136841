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
// non-negative terms, child vectors and stored rows: whenever an archive
// answers RejectsAll for the floor of a DOP group, an archive in the same
// state must reject every variant of the group on its hint — so NaNs and
// infinities anywhere (a NaN term makes the floor NaN; 0×Inf makes one out of
// finite terms) may only ever make RejectsAll say no.
func FuzzMinTermsFloor(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(1, 2, 3), uint8(0), uint8(4), 1.5, false)
	f.Add(seed(0), uint8(1), uint8(2), 1.0, true)
	f.Add(seed(math.Inf(1), 0, 7), uint8(2), uint8(3), 1.2, true)
	f.Add(seed(math.NaN(), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), uint8(0), uint8(4), 2.0, true)
	f.Add(seed(1e308, 1e-308, 0.5, 1e300), uint8(1), uint8(4), 1.01, true)
	// onFloor stores the floor itself as the hinted row, the tightest row
	// that rejects it; otherwise the row is as arbitrary as the rest.
	f.Fuzz(func(t *testing.T, data []byte, algCode, n uint8, alpha float64, onFloor bool) {
		if len(data) == 0 || !(alpha >= 1) || math.IsInf(alpha, 1) {
			return
		}
		in := &floats{data: data}
		alg := storedJoinAlgs[int(algCode)%len(storedJoinAlgs)]
		terms := make([]JoinTerms, 1+int(n)%plan.MaxDOP)
		for k := range terms {
			terms[k] = in.terms(alg, k+1)
		}
		cl, cr, row := in.vector(), in.vector(), in.vector()
		folded := MinTerms(terms)
		floor := folded.Apply(&cl, &cr)
		if onFloor {
			row = floor
		}

		cfg := pareto.NewFlatConfig(objective.AllSet(), alpha)
		group, single := pareto.NewFlat(cfg), pareto.NewFlat(cfg)
		group.Insert(row, plan.Entry{})
		single.Insert(row, plan.Entry{})
		rejected := group.RejectsAll(&floor, len(terms))
		for o := range floor {
			if rejected && (math.IsNaN(floor[o]) || math.IsNaN(row[o])) {
				t.Fatalf("RejectsAll accepted a NaN on %v: row %v floor %v", objective.ID(o), row, floor)
			}
		}
		if !rejected {
			return
		}
		for k := range terms {
			v := terms[k].Apply(&cl, &cr)
			if single.Insert(v, plan.Entry{}) {
				t.Fatalf("row %v rejects the floor %v of %d %v variants at alpha %v, yet DOP %d was stored: %v",
					row, floor, len(terms), alg, alpha, k+1, v)
			}
		}
		if _, rej, _ := single.Stats(); rej != len(terms) || single.HintRejected() != len(terms) {
			t.Fatalf("one by one: %d rejected, %d by the hint; RejectsAll counted %d of each", rej, single.HintRejected(), len(terms))
		}
		if _, rej, _ := group.Stats(); rej != len(terms) || group.HintRejected() != len(terms) {
			t.Fatalf("RejectsAll counted %d rejected, %d by the hint, want %d of each", rej, group.HintRejected(), len(terms))
		}
	})
}

package costmodel

import (
	"math"
	"math/rand"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// The costing oracle: the join formulas as they stood before they were
// split into a prepare and an apply step, frozen verbatim. The split moved
// sub-expressions across a function boundary; it must not have changed a
// single bit of any objective, because archives built from these vectors
// are compared bit for bit (engine against reference engine, snapshot
// against cold run, one enumeration strategy against another).

// storedJoinAlgs are the operators JoinCostVec and PrepareJoin cost: the
// joins of two stored sub-plans.
var storedJoinAlgs = []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin}

func (m *Model) frozenJoinCostVec(alg plan.JoinAlg, dop int, lt, rt query.TableSet, cl, cr *objective.Vector) objective.Vector {
	out := lt.Union(rt)
	lRows, rRows := m.rows(lt), m.rows(rt)
	oRows := m.rows(out)
	d := float64(dop)

	var v objective.Vector
	switch alg {
	case plan.HashJoin:
		build := rRows * m.p.HashBuild
		probe := lRows*m.p.HashProbe + oRows*m.p.TupleWork
		spillPages := math.Max(0, (m.bytes(rt)-m.p.WorkMemBytes)/catalog.PageSize)
		ownIO := 2 * spillPages // write + read spilled partitions
		buildTime := m.coordCPU(build, dop) / d * m.p.CPUTupleMs
		probeTime := (m.coordCPU(probe, dop)/d)*m.p.CPUTupleMs + ownIO*m.p.SeqPageMs

		v[objective.TotalTime] = math.Max(cl[objective.TotalTime], cr[objective.TotalTime]+buildTime) + probeTime + m.p.StartupMs
		v[objective.StartupTime] = math.Max(cl[objective.StartupTime], cr[objective.TotalTime]+buildTime) + m.p.StartupMs
		v[objective.IOLoad] = cl[objective.IOLoad] + cr[objective.IOLoad] + ownIO
		v[objective.CPULoad] = cl[objective.CPULoad] + cr[objective.CPULoad] + m.coordCPU(build+probe, dop)
		v[objective.Cores] = math.Max(d, cl[objective.Cores]+cr[objective.Cores])
		v[objective.DiskFootprint] = cl[objective.DiskFootprint] + cr[objective.DiskFootprint] + spillPages*catalog.PageSize
		v[objective.BufferFootprint] = cl[objective.BufferFootprint] + cr[objective.BufferFootprint] +
			math.Min(m.bytes(rt), m.p.WorkMemBytes)
		v[objective.Energy] = cl[objective.Energy] + cr[objective.Energy] + m.ownEnergy(build+probe, ownIO, dop)

	case plan.SortMergeJoin:
		sortL := m.sortWork(lRows)
		sortR := m.sortWork(rRows)
		merge := (lRows+rRows)*m.p.MergeWork + oRows*m.p.TupleWork
		spillL := math.Max(0, (m.bytes(lt)-m.p.SortMemBytes)/catalog.PageSize)
		spillR := math.Max(0, (m.bytes(rt)-m.p.SortMemBytes)/catalog.PageSize)
		ownIO := 2 * (spillL + spillR) // external sort run write + read
		sortLTime := m.coordCPU(sortL, dop)/d*m.p.CPUTupleMs + 2*spillL*m.p.SeqPageMs
		sortRTime := m.coordCPU(sortR, dop)/d*m.p.CPUTupleMs + 2*spillR*m.p.SeqPageMs
		mergeTime := m.coordCPU(merge, dop) / d * m.p.CPUTupleMs
		sortedBy := math.Max(cl[objective.TotalTime]+sortLTime, cr[objective.TotalTime]+sortRTime)

		v[objective.TotalTime] = sortedBy + mergeTime + m.p.StartupMs
		v[objective.StartupTime] = sortedBy + m.p.StartupMs
		v[objective.IOLoad] = cl[objective.IOLoad] + cr[objective.IOLoad] + ownIO
		v[objective.CPULoad] = cl[objective.CPULoad] + cr[objective.CPULoad] + m.coordCPU(sortL+sortR+merge, dop)
		v[objective.Cores] = math.Max(d, cl[objective.Cores]+cr[objective.Cores])
		v[objective.DiskFootprint] = cl[objective.DiskFootprint] + cr[objective.DiskFootprint] +
			(spillL+spillR)*catalog.PageSize
		v[objective.BufferFootprint] = cl[objective.BufferFootprint] + cr[objective.BufferFootprint] +
			math.Min(m.bytes(lt), m.p.SortMemBytes) + math.Min(m.bytes(rt), m.p.SortMemBytes)
		v[objective.Energy] = cl[objective.Energy] + cr[objective.Energy] + m.ownEnergy(sortL+sortR+merge, ownIO, dop)

	case plan.BlockNLJoin:
		blocks := math.Max(1, math.Ceil(m.bytes(lt)/m.p.BNLBufBytes))
		pairs := lRows*rRows*m.p.PairWork + oRows*m.p.TupleWork
		pairTime := m.coordCPU(pairs, dop) / d * m.p.CPUTupleMs

		v[objective.TotalTime] = cl[objective.TotalTime] + blocks*cr[objective.TotalTime] + pairTime + m.p.StartupMs
		v[objective.StartupTime] = cl[objective.StartupTime] + cr[objective.StartupTime] + m.p.StartupMs
		v[objective.IOLoad] = cl[objective.IOLoad] + blocks*cr[objective.IOLoad]
		v[objective.CPULoad] = cl[objective.CPULoad] + blocks*cr[objective.CPULoad] + m.coordCPU(pairs, dop)
		v[objective.Cores] = math.Max(d, math.Max(cl[objective.Cores], cr[objective.Cores]))
		v[objective.DiskFootprint] = cl[objective.DiskFootprint] + cr[objective.DiskFootprint]
		v[objective.BufferFootprint] = math.Max(cl[objective.BufferFootprint], cr[objective.BufferFootprint]) +
			m.p.BNLBufBytes
		v[objective.Energy] = cl[objective.Energy] + blocks*cr[objective.Energy] + m.ownEnergy(pairs, 0, dop)

	default:
		panic("costmodel: JoinCost does not handle " + alg.String())
	}
	a, b := cl[objective.TupleLoss], cr[objective.TupleLoss]
	v[objective.TupleLoss] = 1 - (1-a)*(1-b)
	return v
}

func (m *Model) frozenIndexNLCostVec(lt query.TableSet, cl *objective.Vector, innerRel int) objective.Vector {
	out := lt.Add(innerRel)
	lRows := m.rows(lt)
	oRows := m.rows(out)
	t := m.baseTable(innerRel)
	tuplesPerPage := math.Max(1, catalog.PageSize/float64(t.Width))
	matchPerLookup := oRows / math.Max(1, lRows)
	pagesPerLookup := 1 + matchPerLookup/tuplesPerPage

	lookupIO := lRows * pagesPerLookup
	lookupCPU := lRows*m.p.LookupWork + oRows*m.p.TupleWork
	lookupTime := lookupIO*m.p.RandPageMs + lookupCPU*m.p.CPUTupleMs

	var v objective.Vector
	v[objective.TotalTime] = cl[objective.TotalTime] + lookupTime + m.p.StartupMs
	v[objective.StartupTime] = cl[objective.StartupTime] + pagesPerLookup*m.p.RandPageMs +
		m.p.LookupWork*m.p.CPUTupleMs + m.p.StartupMs
	v[objective.IOLoad] = cl[objective.IOLoad] + lookupIO
	v[objective.CPULoad] = cl[objective.CPULoad] + lookupCPU
	v[objective.Cores] = math.Max(1, cl[objective.Cores])
	v[objective.DiskFootprint] = cl[objective.DiskFootprint]
	v[objective.BufferFootprint] = cl[objective.BufferFootprint] + m.p.IndexBufBytes
	v[objective.Energy] = cl[objective.Energy] + m.ownEnergy(lookupCPU, lookupIO, 1)
	v[objective.TupleLoss] = cl[objective.TupleLoss]
	return v
}

// oracleQueries are the oracle's inputs: four TPC-H join graphs (q2, q5,
// q8, q10) and one seeded synthetic query per topology.
func oracleQueries(t testing.TB) []*query.Query {
	t.Helper()
	cat := catalog.TPCH(1)
	var qs []*query.Query
	for _, n := range []int{2, 5, 8, 10} {
		q, err := workload.Query(n, cat)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	for _, shape := range []synthetic.Shape{synthetic.Chain, synthetic.Star, synthetic.Cycle} {
		_, q := synthetic.MustBuild(synthetic.Spec{Shape: shape, Tables: 6, Seed: 11})
		qs = append(qs, q)
	}
	return qs
}

// eachConnectedSplit yields every ordered split of every connected table
// set of q into two connected halves — the splits the engine costs.
func eachConnectedSplit(q *query.Query, fn func(left, right query.TableSet)) {
	for s := query.TableSet(3); s <= q.AllTables(); s++ {
		if s.Single() || !q.Connected(s) {
			continue
		}
		q.EachConnectedSplit(s, func(left, right query.TableSet) bool {
			fn(left, right)
			return true
		})
	}
}

// oracleChildren draws the child cost vectors of one split: all zeros, a
// scan-sized and a join-sized vector with tuple loss, and a vector whose
// footprints sit exactly on the model's memory budgets.
func oracleChildren(r *rand.Rand, p Params) []objective.Vector {
	draw := func(scale float64) objective.Vector {
		var v objective.Vector
		for o := range v {
			v[o] = scale * math.Exp(r.Float64()*8-4)
		}
		v[objective.Cores] = float64(1 + r.Intn(6))
		v[objective.TupleLoss] = 0
		return v
	}
	small, large := draw(1), draw(1e6)
	small[objective.TupleLoss] = plan.SampleRates[r.Intn(len(plan.SampleRates))]
	large[objective.TupleLoss] = 1 - r.Float64()*r.Float64()
	var budget objective.Vector
	budget[objective.BufferFootprint] = p.WorkMemBytes
	budget[objective.DiskFootprint] = p.SortMemBytes
	budget[objective.Cores] = 4
	return []objective.Vector{{}, small, large, budget}
}

func bitsEqual(a, b objective.Vector) bool {
	for o := range a {
		if math.Float64bits(a[o]) != math.Float64bits(b[o]) {
			return false
		}
	}
	return true
}

// TestCostingOracle holds prepare + apply (and the JoinCostVec and
// IndexNLCostVec wrappers over them) to the frozen formulas on every
// (operator, DOP, connected split) cell, bit for bit over all nine
// objectives. Each split is costed under three calibrations: the default
// one, one whose memory budgets equal the operands' sizes exactly (the
// spill terms' max(0, ·) and min(·, budget) sit on their boundary), and
// one a page below that (everything spills by a hair).
func TestCostingOracle(t *testing.T) {
	for _, q := range oracleQueries(t) {
		r := rand.New(rand.NewSource(int64(q.NumRelations())))
		cells, splits := 0, 0
		base := NewDefault(q)
		eachConnectedSplit(q, func(left, right query.TableSet) {
			splits++
			lBytes, rBytes := base.bytes(left), base.bytes(right)
			boundary, below := Default(), Default()
			boundary.WorkMemBytes, boundary.SortMemBytes, boundary.BNLBufBytes = rBytes, lBytes, lBytes
			below.WorkMemBytes = math.Max(1, rBytes-catalog.PageSize)
			below.SortMemBytes = math.Max(1, lBytes-catalog.PageSize)
			below.BNLBufBytes = math.Max(1, lBytes-catalog.PageSize)
			for _, p := range []Params{Default(), boundary, below} {
				m := New(q, p)
				children := oracleChildren(r, p)
				for _, alg := range storedJoinAlgs {
					for dop := 1; dop <= plan.MaxDOP; dop++ {
						terms := m.PrepareJoin(alg, dop, left, right)
						for i := range children {
							for j := range children {
								cl, cr := &children[i], &children[j]
								want := m.frozenJoinCostVec(alg, dop, left, right, cl, cr)
								if got := terms.Apply(cl, cr); !bitsEqual(got, want) {
									t.Fatalf("%s %v dop %d %v|%v: prepare+apply\n%v\nfrozen\n%v", q.Name, alg, dop, left, right, got, want)
								}
								// The engine applies into reused scratch: every
								// entry must be overwritten, whatever was there.
								got := nanVector()
								if terms.ApplyTo(&got, cl, cr); !bitsEqual(got, want) {
									t.Fatalf("%s %v dop %d %v|%v: ApplyTo over a dirty vector\n%v\nfrozen\n%v", q.Name, alg, dop, left, right, got, want)
								}
								if got := m.JoinCostVec(alg, dop, left, right, cl, cr); !bitsEqual(got, want) {
									t.Fatalf("%s %v dop %d %v|%v: JoinCostVec\n%v\nfrozen\n%v", q.Name, alg, dop, left, right, got, want)
								}
							}
						}
						cells++
					}
				}
				if !right.Single() {
					continue
				}
				inner := right.First()
				terms := m.PrepareIndexNL(left, inner)
				for i := range children {
					cl := &children[i]
					want := m.frozenIndexNLCostVec(left, cl, inner)
					if got := terms.Apply(cl); !bitsEqual(got, want) {
						t.Fatalf("%s IndexNL %v|%d: prepare+apply\n%v\nfrozen\n%v", q.Name, left, inner, got, want)
					}
					got := nanVector()
					if terms.ApplyTo(&got, cl); !bitsEqual(got, want) {
						t.Fatalf("%s IndexNL %v|%d: ApplyTo over a dirty vector\n%v\nfrozen\n%v", q.Name, left, inner, got, want)
					}
					if got := m.IndexNLCostVec(left, cl, inner); !bitsEqual(got, want) {
						t.Fatalf("%s IndexNL %v|%d: IndexNLCostVec\n%v\nfrozen\n%v", q.Name, left, inner, got, want)
					}
				}
				cells++
			}
		})
		if splits == 0 {
			t.Fatalf("%s: no connected split", q.Name)
		}
		t.Logf("%s: %d splits, %d (operator, dop, split, calibration) cells", q.Name, splits, cells)
	}
}

// nanVector is a vector no formula produces, so an entry ApplyTo left
// unwritten shows.
func nanVector() (v objective.Vector) {
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

var (
	sinkJoinTerms    JoinTerms
	sinkIndexNLTerms IndexNLTerms
	sinkVector       objective.Vector
)

// TestPrepareApplyZeroAlloc pins both costing steps allocation-free: the
// engine prepares into worker scratch and applies once per candidate.
func TestPrepareApplyZeroAlloc(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	left, right := query.Singleton(0).Add(1), query.Singleton(2)
	cl, cr := m.ScanCost(0, plan.SeqScan, 0), m.ScanCost(2, plan.SeqScan, 0)
	m.PrepareJoin(plan.HashJoin, 1, left, right) // fill the cardinality memo
	for _, alg := range storedJoinAlgs {
		if n := testing.AllocsPerRun(100, func() { sinkJoinTerms = m.PrepareJoin(alg, 2, left, right) }); n != 0 {
			t.Errorf("PrepareJoin(%v): %v allocs/op, want 0", alg, n)
		}
		terms := m.PrepareJoin(alg, 2, left, right)
		if n := testing.AllocsPerRun(100, func() { terms.ApplyTo(&sinkVector, &cl, &cr) }); n != 0 {
			t.Errorf("JoinTerms.ApplyTo(%v): %v allocs/op, want 0", alg, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sinkIndexNLTerms = m.PrepareIndexNL(left, 2) }); n != 0 {
		t.Errorf("PrepareIndexNL: %v allocs/op, want 0", n)
	}
	terms := m.PrepareIndexNL(left, 2)
	if n := testing.AllocsPerRun(100, func() { terms.ApplyTo(&sinkVector, &cl) }); n != 0 {
		t.Errorf("IndexNLTerms.ApplyTo: %v allocs/op, want 0", n)
	}
}

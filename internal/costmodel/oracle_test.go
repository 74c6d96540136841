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

// storedJoinAlgs are the operators JoinCostVec and Split.Join cost: the
// joins of two stored sub-plans.
var storedJoinAlgs = []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin}

// rows, bytes and frozenSortWork are the estimate readers the frozen
// formulas call, as they stood beside them: one table lookup per call and a
// logarithm per sort.
func (m *Model) rows(s query.TableSet) float64 { return m.estimate(s).rows }

func (m *Model) bytes(s query.TableSet) float64 {
	e := m.estimate(s)
	return e.rows * e.width
}

func (m *Model) frozenSortWork(n float64) float64 {
	if n < 2 {
		return m.p.SortFactor
	}
	return m.p.SortFactor * n * math.Log2(n)
}

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
		sortL := m.frozenSortWork(lRows)
		sortR := m.frozenSortWork(rRows)
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

// frozenScanCPU is ScanCost's CPU work, the one per-tuple term of a scan:
// TupleWork per tuple read (an index scan's per qualifying tuple, plus one
// lookup).
func (m *Model) frozenScanCPU(rel int, alg plan.ScanAlg, rate float64) float64 {
	t := m.baseTable(rel)
	switch alg {
	case plan.IndexScan:
		return t.Rows*m.q.Relations[rel].FilterSel*m.p.TupleWork + m.p.LookupWork
	case plan.SampleScan:
		return t.Rows * rate * m.p.TupleWork
	}
	return t.Rows * m.p.TupleWork
}

// frozenScanCost is ScanCost formula by formula, all nine objectives: the
// pages read (sequential, random or sampled), the CPU work of
// frozenScanCPU, the time and startup time they cost, the operator's
// buffer, and the energy of its CPU work and I/O.
func (m *Model) frozenScanCost(rel int, alg plan.ScanAlg, rate float64) objective.Vector {
	t := m.baseTable(rel)
	cpu := m.frozenScanCPU(rel, alg, rate)
	var v objective.Vector
	switch alg {
	case plan.SeqScan:
		io := t.Pages()
		v[objective.IOLoad] = io
		v[objective.TotalTime] = io*m.p.SeqPageMs + cpu*m.p.CPUTupleMs + m.p.StartupMs
		v[objective.StartupTime] = m.p.StartupMs + m.p.SeqPageMs
		v[objective.BufferFootprint] = m.p.ScanBufBytes
	case plan.IndexScan:
		tuplesPerPage := math.Max(1, catalog.PageSize/float64(t.Width))
		io := 2 + math.Max(1, t.Rows*m.q.Relations[rel].FilterSel/tuplesPerPage)
		v[objective.IOLoad] = io
		v[objective.TotalTime] = io*m.p.RandPageMs + cpu*m.p.CPUTupleMs + m.p.StartupMs
		v[objective.StartupTime] = m.p.StartupMs + 3*m.p.RandPageMs
		v[objective.BufferFootprint] = m.p.IndexBufBytes
	case plan.SampleScan:
		io := math.Max(1, t.Pages()*rate)
		v[objective.IOLoad] = io
		v[objective.TotalTime] = io*m.p.SeqPageMs + cpu*m.p.CPUTupleMs + m.p.StartupMs
		v[objective.StartupTime] = m.p.StartupMs + m.p.SeqPageMs
		v[objective.BufferFootprint] = m.p.ScanBufBytes
		v[objective.TupleLoss] = 1 - rate
	}
	v[objective.CPULoad] = cpu
	v[objective.Cores] = 1
	v[objective.Energy] = cpu*m.p.CPUEnergyJ + v[objective.IOLoad]*m.p.IOEnergyJ
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

// TestCostingOracle holds the engine's costing path to the frozen formulas
// on every (operator, DOP, connected split) cell, bit for bit over all nine
// objectives: each split is prepared once (PrepareSplit), every operator's
// terms at every DOP and the index-NL terms are built from that one Split,
// and each is applied to every pair of child vectors — as are the
// JoinCostVec and IndexNLCostVec wrappers, which prepare a split per call.
// Each split is costed under four calibrations: the default one, one whose
// memory budgets equal the operands' sizes exactly (the spill terms'
// max(0, ·) and min(·, budget) sit on their boundary), one a page below
// that (everything spills by a hair), and one whose per-tuple coefficients
// are all ≠ 1 and pairwise distinct, so a coefficient that is divided by
// instead of multiplied with, or read in another's place, shows; its time
// and energy coefficients differ from the default ones too. The scans of
// each split's single inner (every relation is one) are held to
// frozenScanCost, all nine objectives, under the same four calibrations.
func TestCostingOracle(t *testing.T) {
	distinct := Default()
	distinct.TupleWork, distinct.HashBuild, distinct.HashProbe = 1.7, 2.3, 1.3
	distinct.SortFactor, distinct.MergeWork, distinct.PairWork, distinct.LookupWork = 0.45, 0.8, 0.03, 2.6
	distinct.StartupMs, distinct.SeqPageMs, distinct.RandPageMs, distinct.CPUTupleMs = 0.35, 0.07, 0.9, 0.0013
	distinct.CPUEnergyJ, distinct.IOEnergyJ = 0.0000037, 0.00041
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
			for _, p := range []Params{Default(), boundary, below, distinct} {
				m := New(q, p)
				children := oracleChildren(r, p)
				split := m.PrepareSplit(left, right)
				for _, alg := range storedJoinAlgs {
					for dop := 1; dop <= plan.MaxDOP; dop++ {
						terms := split.Join(alg, dop)
						for i := range children {
							for j := range children {
								cl, cr := &children[i], &children[j]
								want := m.frozenJoinCostVec(alg, dop, left, right, cl, cr)
								if got := terms.Apply(cl, cr); !bitsEqual(got, want) {
									t.Fatalf("%s %v dop %d %v|%v: split+apply\n%v\nfrozen\n%v", q.Name, alg, dop, left, right, got, want)
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
				for _, alg := range []plan.ScanAlg{plan.SeqScan, plan.IndexScan, plan.SampleScan} {
					for _, rate := range plan.SampleRates {
						if got, want := m.ScanCost(inner, alg, rate), m.frozenScanCost(inner, alg, rate); !bitsEqual(got, want) {
							t.Fatalf("%s %v of relation %d at rate %v:\n%v\nfrozen\n%v", q.Name, alg, inner, rate, got, want)
						}
					}
				}
				terms := split.IndexNL()
				for i := range children {
					cl := &children[i]
					want := m.frozenIndexNLCostVec(left, cl, inner)
					if got := terms.Apply(cl); !bitsEqual(got, want) {
						t.Fatalf("%s IndexNL %v|%d: split+apply\n%v\nfrozen\n%v", q.Name, left, inner, got, want)
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

// TestSortWorkBoundary pins sortWork's n < 2 boundary, which no split of
// the oracle's queries reaches: fewer than two rows cost one SortFactor, two
// rows SortFactor·2·log2(2), twice that.
func TestSortWorkBoundary(t *testing.T) {
	p := Default()
	p.SortFactor = 0.45
	m := New(testQuery(t), p)
	for _, tc := range []struct{ n, want float64 }{
		{0, p.SortFactor},
		{1, p.SortFactor},
		{math.Nextafter(2, 0), p.SortFactor},
		{2, 2 * p.SortFactor},
		{8, 24 * p.SortFactor},
	} {
		if got := m.sortWork(tc.n, math.Log2(tc.n)); got != tc.want {
			t.Errorf("sortWork(%v) = %v, want %v", tc.n, got, tc.want)
		}
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

// TestPrepareApplyZeroAlloc pins every costing step allocation-free: the
// engine prepares a split on its stack, builds the split's terms into worker
// scratch and applies them once per candidate.
func TestPrepareApplyZeroAlloc(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	left, right := query.Singleton(0).Add(1), query.Singleton(2)
	cl, cr := m.ScanCost(0, plan.SeqScan, 0), m.ScanCost(2, plan.SeqScan, 0)
	m.PrepareJoin(plan.HashJoin, 1, left, right) // fill the cardinality memo
	split := m.PrepareSplit(left, right)
	if n := testing.AllocsPerRun(100, func() { split = m.PrepareSplit(left, right) }); n != 0 {
		t.Errorf("PrepareSplit: %v allocs/op, want 0", n)
	}
	for _, alg := range storedJoinAlgs {
		if n := testing.AllocsPerRun(100, func() { sinkJoinTerms = split.Join(alg, 2) }); n != 0 {
			t.Errorf("Split.Join(%v): %v allocs/op, want 0", alg, n)
		}
		if n := testing.AllocsPerRun(100, func() { sinkJoinTerms = m.PrepareJoin(alg, 2, left, right) }); n != 0 {
			t.Errorf("PrepareJoin(%v): %v allocs/op, want 0", alg, n)
		}
		terms := split.Join(alg, 2)
		if n := testing.AllocsPerRun(100, func() { terms.ApplyTo(&sinkVector, &cl, &cr) }); n != 0 {
			t.Errorf("JoinTerms.ApplyTo(%v): %v allocs/op, want 0", alg, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { sinkIndexNLTerms = split.IndexNL() }); n != 0 {
		t.Errorf("Split.IndexNL: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkIndexNLTerms = m.PrepareIndexNL(left, 2) }); n != 0 {
		t.Errorf("PrepareIndexNL: %v allocs/op, want 0", n)
	}
	terms := split.IndexNL()
	if n := testing.AllocsPerRun(100, func() { terms.ApplyTo(&sinkVector, &cl) }); n != 0 {
		t.Errorf("IndexNLTerms.ApplyTo: %v allocs/op, want 0", n)
	}
}

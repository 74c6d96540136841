package costmodel

import (
	"math"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// Params holds the calibration constants of the cost model. The absolute
// values are representative, not measured — the paper's conclusions depend
// on the formulas' structure, not on Postgres's calibration (DESIGN.md §2).
type Params struct {
	SeqPageMs  float64 // sequential page read (ms)
	RandPageMs float64 // random page read (ms)
	CPUTupleMs float64 // per-tuple processing (ms per work unit)

	TupleWork  float64 // CPU work units per emitted/filtered tuple
	HashBuild  float64 // CPU work units per build tuple
	HashProbe  float64 // CPU work units per probe tuple
	SortFactor float64 // CPU work units per tuple per log2(tuples)
	MergeWork  float64 // CPU work units per merged tuple
	PairWork   float64 // CPU work units per tuple pair (block nested loop)
	LookupWork float64 // CPU work units per index lookup

	WorkMemBytes  float64 // hash-table memory budget before spilling
	SortMemBytes  float64 // sort memory budget (external merge beyond it)
	ScanBufBytes  float64 // buffer pages pinned by a sequential scan
	IndexBufBytes float64 // buffer pinned by an index (re)scan
	BNLBufBytes   float64 // block buffer of a block-nested-loop join

	CPUCoordination    float64 // extra CPU fraction per additional core
	EnergyCoordination float64 // extra energy fraction per additional core
	CPUEnergyJ         float64 // Joule per CPU work unit
	IOEnergyJ          float64 // Joule per page access

	StartupMs float64 // fixed operator startup latency (ms)
}

// Default returns the default calibration.
func Default() Params {
	return Params{
		SeqPageMs:  0.05,
		RandPageMs: 0.5,
		CPUTupleMs: 0.0005,

		TupleWork:  1,
		HashBuild:  2.0,
		HashProbe:  1.2,
		SortFactor: 0.35,
		MergeWork:  0.6,
		PairWork:   0.01,
		LookupWork: 3.0,

		WorkMemBytes:  64 << 20, // 64 MB work_mem for hash tables
		SortMemBytes:  4 << 20,  // 4 MB sort memory (external merge beyond)
		ScanBufBytes:  32 * catalog.PageSize,
		IndexBufBytes: 8 * catalog.PageSize,
		BNLBufBytes:   64 * catalog.PageSize,

		CPUCoordination:    0.25,
		EnergyCoordination: 0.20,
		CPUEnergyJ:         0.000002,
		IOEnergyJ:          0.0002,

		StartupMs: 0.1,
	}
}

// Model computes cost vectors for plan operators over one query, and keeps
// the memo of the paper's Observation 2 — a table set's cardinality and
// width depend on the set, never on the plan — for the one optimization it
// is built for: the query is immutable and shared, the table is the run's.
//
// A Model serves one run at a time. The table is an unlocked map filled on
// a miss, so two goroutines must not use a Model at once — except that once
// Warm has stored every table set a run costs, costing only reads, and that
// run's workers may cost concurrently. Runs that follow one another on one
// goroutine (IRA's iterations, ObjectiveMinima's programs) share a Model
// and find the table filled.
type Model struct {
	q *query.Query
	p Params

	est map[query.TableSet]estimate
}

// estimate is one table set's query.EstimateRows and query.EstimateWidth,
// the width as the float64 the formulas multiply with.
type estimate struct{ rows, width float64 }

// New creates a cost model for the given query with the given calibration.
func New(q *query.Query, p Params) *Model {
	return &Model{q: q, p: p}
}

// NewDefault creates a cost model with the default calibration.
func NewDefault(q *query.Query) *Model { return New(q, Default()) }

// Query returns the query the model estimates for.
func (m *Model) Query() *query.Query { return m.q }

// Params returns the model's calibration constants. Anything that caches
// or shares results across models (the request fingerprints, the
// batch path's shared memo) folds them into its keys, since two models
// with different calibrations cost the same plan differently.
func (m *Model) Params() Params { return m.p }

// Warm stores the estimates of the table sets in levels, total of them, so
// that costing any operator over those sets afterwards only reads the table
// (see Model). The first call sizes the table.
func (m *Model) Warm(levels [][]query.TableSet, total int) {
	if m.est == nil {
		m.est = make(map[query.TableSet]estimate, total)
	}
	for _, sets := range levels {
		for _, s := range sets {
			m.estimate(s)
		}
	}
}

// estimate returns the estimates of a table set, computed and stored on a
// miss.
func (m *Model) estimate(s query.TableSet) estimate {
	e, ok := m.est[s]
	if !ok {
		if m.est == nil {
			m.est = make(map[query.TableSet]estimate)
		}
		e = estimate{rows: m.q.EstimateRows(s), width: float64(m.q.EstimateWidth(s))}
		m.est[s] = e
	}
	return e
}

// rows returns the estimated output cardinality of a table set.
func (m *Model) rows(s query.TableSet) float64 { return m.estimate(s).rows }

// bytes returns the estimated output size in bytes of a table set.
func (m *Model) bytes(s query.TableSet) float64 {
	e := m.estimate(s)
	return e.rows * e.width
}

// pages returns the estimated output size in pages of a table set.
func (m *Model) pages(s query.TableSet) float64 {
	p := m.bytes(s) / catalog.PageSize
	if p < 1 {
		p = 1
	}
	return p
}

// baseTable returns the catalog statistics of a relation's base table.
func (m *Model) baseTable(rel int) *catalog.Table {
	return m.q.Catalog().Table(m.q.Relations[rel].Table)
}

// coordCPU returns the CPU work for w units at the given DOP, including the
// coordination overhead that makes more cores cost more total work.
func (m *Model) coordCPU(w float64, dop int) float64 {
	return w * m.coordFactor(dop)
}

// coordFactor is the factor by which coordination inflates CPU work at
// the given DOP.
func (m *Model) coordFactor(dop int) float64 {
	return 1 + m.p.CPUCoordination*float64(dop-1)
}

// ScanCost returns the cost vector of scanning relation rel with the given
// algorithm; rate is the sampling rate for SampleScan and ignored otherwise.
func (m *Model) ScanCost(rel int, alg plan.ScanAlg, rate float64) objective.Vector {
	t := m.baseTable(rel)
	sel := m.q.Relations[rel].FilterSel
	outRows := t.Rows * sel
	tuplesPerPage := math.Max(1, catalog.PageSize/float64(t.Width))

	var v objective.Vector
	switch alg {
	case plan.SeqScan:
		io := t.Pages()
		cpu := t.Rows * m.p.TupleWork
		v[objective.IOLoad] = io
		v[objective.CPULoad] = cpu
		v[objective.TotalTime] = io*m.p.SeqPageMs + cpu*m.p.CPUTupleMs + m.p.StartupMs
		v[objective.StartupTime] = m.p.StartupMs + m.p.SeqPageMs
		v[objective.BufferFootprint] = m.p.ScanBufBytes
	case plan.IndexScan:
		// Range scan over the qualifying fraction; random page accesses.
		matchPages := math.Max(1, outRows/tuplesPerPage)
		io := 2 + matchPages // descent + leaf/heap pages
		cpu := outRows*m.p.TupleWork + m.p.LookupWork
		v[objective.IOLoad] = io
		v[objective.CPULoad] = cpu
		v[objective.TotalTime] = io*m.p.RandPageMs + cpu*m.p.CPUTupleMs + m.p.StartupMs
		v[objective.StartupTime] = m.p.StartupMs + 3*m.p.RandPageMs
		v[objective.BufferFootprint] = m.p.IndexBufBytes
	case plan.SampleScan:
		// Block sampling: read and process a fraction of the table.
		io := math.Max(1, t.Pages()*rate)
		cpu := t.Rows * rate * m.p.TupleWork
		v[objective.IOLoad] = io
		v[objective.CPULoad] = cpu
		v[objective.TotalTime] = io*m.p.SeqPageMs + cpu*m.p.CPUTupleMs + m.p.StartupMs
		v[objective.StartupTime] = m.p.StartupMs + m.p.SeqPageMs
		v[objective.BufferFootprint] = m.p.ScanBufBytes
		v[objective.TupleLoss] = 1 - rate
	default:
		panic("costmodel: unknown scan algorithm")
	}
	v[objective.Cores] = 1
	v[objective.Energy] = v[objective.CPULoad]*m.p.CPUEnergyJ + v[objective.IOLoad]*m.p.IOEnergyJ
	return v
}

// JoinCost returns the cost vector of joining the results of left and right
// with the given algorithm and degree of parallelism. For IndexNLJoin use
// IndexNLCost instead (its inner operand is an index lookup, not a stored
// sub-plan).
func (m *Model) JoinCost(alg plan.JoinAlg, dop int, left, right *plan.Node) objective.Vector {
	return m.JoinCostVec(alg, dop, left.Tables, right.Tables, &left.Cost, &right.Cost)
}

// JoinCostVec is JoinCost over raw operand table sets and cost vectors:
// PrepareJoin followed by Apply. Callers costing many sub-plan pairs of one
// split prepare once and apply per pair instead (the engine's candidate
// loops do); cl and cr are not retained.
func (m *Model) JoinCostVec(alg plan.JoinAlg, dop int, lt, rt query.TableSet, cl, cr *objective.Vector) objective.Vector {
	t := m.PrepareJoin(alg, dop, lt, rt)
	return t.Apply(cl, cr)
}

// JoinTerms are the split-constant terms of one join operator at one degree
// of parallelism over one ordered pair of operand table sets — everything
// in the join's cost formulas that the paper's Observation 2 says does not
// depend on the sub-plans. PrepareJoin computes them from cardinality and
// width estimates without ever seeing a child cost; Apply combines them
// with two child cost vectors by pure arithmetic. A field an operator's
// formulas do not use stays zero and is never read for that operator.
//
// Where a formula adds a product straight to a child-dependent value
// (child + work*factor), the two factors are stored and Apply multiplies:
// compilers for FMA architectures fuse such a product and its addition
// into one rounding, and a product rounded on its own in PrepareJoin would
// differ from that in the last bit. Products whose factor is a power of
// two (2*pages, pages*PageSize) are exact either way and are stored whole.
type JoinTerms struct {
	Alg plan.JoinAlg
	DOP int

	d       float64 // float64(DOP)
	startup float64 // Params.StartupMs
	cpuMs   float64 // Params.CPUTupleMs

	// work*coord is the coordinated CPU work of the operator itself.
	work, coord float64
	ownIO       float64 // spill page accesses (write + read)
	energy      float64 // energy of the operator's own CPU work and I/O
	disk        float64 // spilled bytes

	// HashJoin: buildCPU*cpuMs is the build time (on the right, build
	// side); probeTime includes the spill I/O.
	buildCPU, probeTime float64
	// SortMergeJoin: the operands' sort times including external-run I/O.
	sortLTime, sortRTime float64
	// outCPU*cpuMs is the merge time (SortMergeJoin) or the pair time
	// (BlockNLJoin).
	outCPU float64
	// BlockNLJoin: inner re-evaluations, one per block of the outer.
	blocks float64
	// Buffer additions: the hash table (bufR), the two sort areas (bufL,
	// bufR) or the block buffer (bufR). Kept apart because the formulas add
	// them one after the other, and floating-point addition does not
	// re-associate.
	bufL, bufR float64
}

// PrepareJoin computes the split-constant terms of joining table sets lt
// and rt with the given algorithm and degree of parallelism.
func (m *Model) PrepareJoin(alg plan.JoinAlg, dop int, lt, rt query.TableSet) (t JoinTerms) {
	out := lt.Union(rt)
	lRows, rRows := m.rows(lt), m.rows(rt)
	oRows := m.rows(out)
	d := float64(dop)

	t = JoinTerms{Alg: alg, DOP: dop, d: d, startup: m.p.StartupMs, cpuMs: m.p.CPUTupleMs, coord: m.coordFactor(dop)}
	switch alg {
	case plan.HashJoin:
		build := rRows * m.p.HashBuild
		probe := lRows*m.p.HashProbe + oRows*m.p.TupleWork
		rBytes := m.bytes(rt)
		spillPages := math.Max(0, (rBytes-m.p.WorkMemBytes)/catalog.PageSize)
		t.ownIO = 2 * spillPages // write + read spilled partitions
		t.buildCPU = m.coordCPU(build, dop) / d
		t.probeTime = (m.coordCPU(probe, dop)/d)*m.p.CPUTupleMs + t.ownIO*m.p.SeqPageMs
		t.work = build + probe
		t.disk = spillPages * catalog.PageSize
		t.bufR = math.Min(rBytes, m.p.WorkMemBytes)

	case plan.SortMergeJoin:
		sortL := m.sortWork(lRows)
		sortR := m.sortWork(rRows)
		merge := (lRows+rRows)*m.p.MergeWork + oRows*m.p.TupleWork
		lBytes, rBytes := m.bytes(lt), m.bytes(rt)
		spillL := math.Max(0, (lBytes-m.p.SortMemBytes)/catalog.PageSize)
		spillR := math.Max(0, (rBytes-m.p.SortMemBytes)/catalog.PageSize)
		t.ownIO = 2 * (spillL + spillR) // external sort run write + read
		t.sortLTime = m.coordCPU(sortL, dop)/d*m.p.CPUTupleMs + 2*spillL*m.p.SeqPageMs
		t.sortRTime = m.coordCPU(sortR, dop)/d*m.p.CPUTupleMs + 2*spillR*m.p.SeqPageMs
		t.outCPU = m.coordCPU(merge, dop) / d
		t.work = sortL + sortR + merge
		t.disk = (spillL + spillR) * catalog.PageSize
		t.bufL = math.Min(lBytes, m.p.SortMemBytes)
		t.bufR = math.Min(rBytes, m.p.SortMemBytes)

	case plan.BlockNLJoin:
		// The inner sub-plan is re-evaluated once per block of the outer —
		// a child cost multiplied by a per-table-set constant, the t_L*c_R
		// term of the paper's Observation 2.
		t.blocks = math.Max(1, math.Ceil(m.bytes(lt)/m.p.BNLBufBytes))
		pairs := lRows*rRows*m.p.PairWork + oRows*m.p.TupleWork
		t.outCPU = m.coordCPU(pairs, dop) / d
		t.work = pairs
		t.bufR = m.p.BNLBufBytes

	default:
		panic("costmodel: JoinCost does not handle " + alg.String())
	}
	t.energy = m.ownEnergy(t.work, t.ownIO, dop)
	return t
}

// MinTerms folds the prepared terms of one operator over one split — one per
// degree of parallelism, at least one — into their componentwise minimum: the
// terms of no real operator, whose ApplyTo is a floor under every one of them.
// ApplyTo builds each objective from +, × and max over the terms and the child
// costs, all non-negative, and floating-point +, × and max are monotone in
// each operand there (rounding is monotone; +Inf is the largest operand). So
// for any child vectors, ApplyTo on the minimum is, objective by objective, at
// most ApplyTo on terms[k] for every k — or one of the two is NaN (0×Inf,
// or a NaN term, which Go's min propagates), which the caller's comparison
// must treat as "no bound". Tuple loss reads no term and comes out the same.
// The result keeps terms[0]'s Alg, which selects the formulas; its DOP names
// no candidate.
func MinTerms(terms []JoinTerms) JoinTerms {
	t := terms[0]
	for i := range terms[1:] {
		u := &terms[1+i]
		t.d = min(t.d, u.d)
		t.startup = min(t.startup, u.startup)
		t.cpuMs = min(t.cpuMs, u.cpuMs)
		t.work = min(t.work, u.work)
		t.coord = min(t.coord, u.coord)
		t.ownIO = min(t.ownIO, u.ownIO)
		t.energy = min(t.energy, u.energy)
		t.disk = min(t.disk, u.disk)
		t.buildCPU = min(t.buildCPU, u.buildCPU)
		t.probeTime = min(t.probeTime, u.probeTime)
		t.sortLTime = min(t.sortLTime, u.sortLTime)
		t.sortRTime = min(t.sortRTime, u.sortRTime)
		t.outCPU = min(t.outCPU, u.outCPU)
		t.blocks = min(t.blocks, u.blocks)
		t.bufL = min(t.bufL, u.bufL)
		t.bufR = min(t.bufR, u.bufR)
	}
	return t
}

// Apply returns the cost vector of the prepared join over sub-plans with
// cost vectors cl and cr: ApplyTo into a fresh vector.
func (t *JoinTerms) Apply(cl, cr *objective.Vector) (v objective.Vector) {
	t.ApplyTo(&v, cl, cr)
	return v
}

// ApplyTo writes the cost vector of the prepared join over sub-plans with
// cost vectors cl and cr into v — every entry, so v's old contents do not
// matter; v must not alias cl or cr. Every expression keeps the shape and
// evaluation order of the formula it was split from — floating-point
// arithmetic does not re-associate, and the engine's archives are compared
// bit for bit. The engine's candidate loops apply into one vector of the
// worker's scratch, which the archive then reads in place: a candidate's
// cost is written once, not copied from frame to frame on its way to the
// dominance scan.
func (t *JoinTerms) ApplyTo(v, cl, cr *objective.Vector) {
	switch t.Alg {
	case plan.HashJoin:
		buildTime := t.buildCPU * t.cpuMs

		v[objective.TotalTime] = max(cl[objective.TotalTime], cr[objective.TotalTime]+buildTime) + t.probeTime + t.startup
		v[objective.StartupTime] = max(cl[objective.StartupTime], cr[objective.TotalTime]+buildTime) + t.startup
		v[objective.IOLoad] = cl[objective.IOLoad] + cr[objective.IOLoad] + t.ownIO
		v[objective.CPULoad] = cl[objective.CPULoad] + cr[objective.CPULoad] + t.work*t.coord
		v[objective.Cores] = max(t.d, cl[objective.Cores]+cr[objective.Cores])
		v[objective.DiskFootprint] = cl[objective.DiskFootprint] + cr[objective.DiskFootprint] + t.disk
		v[objective.BufferFootprint] = cl[objective.BufferFootprint] + cr[objective.BufferFootprint] + t.bufR
		v[objective.Energy] = cl[objective.Energy] + cr[objective.Energy] + t.energy

	case plan.SortMergeJoin:
		mergeTime := t.outCPU * t.cpuMs
		sortedBy := max(cl[objective.TotalTime]+t.sortLTime, cr[objective.TotalTime]+t.sortRTime)

		v[objective.TotalTime] = sortedBy + mergeTime + t.startup
		v[objective.StartupTime] = sortedBy + t.startup
		v[objective.IOLoad] = cl[objective.IOLoad] + cr[objective.IOLoad] + t.ownIO
		v[objective.CPULoad] = cl[objective.CPULoad] + cr[objective.CPULoad] + t.work*t.coord
		v[objective.Cores] = max(t.d, cl[objective.Cores]+cr[objective.Cores])
		v[objective.DiskFootprint] = cl[objective.DiskFootprint] + cr[objective.DiskFootprint] + t.disk
		v[objective.BufferFootprint] = cl[objective.BufferFootprint] + cr[objective.BufferFootprint] +
			t.bufL + t.bufR
		v[objective.Energy] = cl[objective.Energy] + cr[objective.Energy] + t.energy

	case plan.BlockNLJoin:
		pairTime := t.outCPU * t.cpuMs

		v[objective.TotalTime] = cl[objective.TotalTime] + t.blocks*cr[objective.TotalTime] + pairTime + t.startup
		v[objective.StartupTime] = cl[objective.StartupTime] + cr[objective.StartupTime] + t.startup
		v[objective.IOLoad] = cl[objective.IOLoad] + t.blocks*cr[objective.IOLoad]
		v[objective.CPULoad] = cl[objective.CPULoad] + t.blocks*cr[objective.CPULoad] + t.work*t.coord
		v[objective.Cores] = max(t.d, max(cl[objective.Cores], cr[objective.Cores]))
		v[objective.DiskFootprint] = cl[objective.DiskFootprint] + cr[objective.DiskFootprint]
		v[objective.BufferFootprint] = max(cl[objective.BufferFootprint], cr[objective.BufferFootprint]) +
			t.bufR
		v[objective.Energy] = cl[objective.Energy] + t.blocks*cr[objective.Energy] + t.energy
	}
	// Tuple loss composes multiplicatively: 1-(1-a)(1-b).
	a, b := cl[objective.TupleLoss], cr[objective.TupleLoss]
	v[objective.TupleLoss] = 1 - (1-a)*(1-b)
}

// IndexNLCost returns the cost vector of an index-nested-loop join: for
// every outer tuple from left, one index lookup on the inner base relation
// innerRel. The inner side is never sampled, so it contributes no tuple
// loss; the join is inherently sequential (DOP 1).
func (m *Model) IndexNLCost(left *plan.Node, innerRel int) objective.Vector {
	return m.IndexNLCostVec(left.Tables, &left.Cost, innerRel)
}

// IndexNLCostVec is IndexNLCost over a raw outer table set and cost vector:
// PrepareIndexNL followed by Apply (see JoinCostVec).
func (m *Model) IndexNLCostVec(lt query.TableSet, cl *objective.Vector, innerRel int) objective.Vector {
	t := m.PrepareIndexNL(lt, innerRel)
	return t.Apply(cl)
}

// IndexNLTerms are the terms of an index-nested-loop join that are constant
// per outer table set and inner relation (see JoinTerms, also for why some
// products are left to Apply).
type IndexNLTerms struct {
	lRows, pagesPerLookup float64 // their product is the lookup I/O
	lookupCPU, lookupTime float64
	// The three additions to the outer's startup time: the first lookup's
	// page reads (pagesPerLookup*randPageMs), its CPU (lookupWork*cpuMs),
	// the operator's own start-up.
	randPageMs, lookupWork, cpuMs, startup float64
	buf                                    float64 // Params.IndexBufBytes
	energy                                 float64
}

// PrepareIndexNL computes the terms of an index-nested-loop join of outer
// table set lt with the inner base relation innerRel.
func (m *Model) PrepareIndexNL(lt query.TableSet, innerRel int) IndexNLTerms {
	out := lt.Add(innerRel)
	lRows := m.rows(lt)
	oRows := m.rows(out)
	tbl := m.baseTable(innerRel)
	tuplesPerPage := math.Max(1, catalog.PageSize/float64(tbl.Width))
	// Matching inner tuples per outer tuple determine pages per lookup.
	matchPerLookup := oRows / math.Max(1, lRows)
	pagesPerLookup := 1 + matchPerLookup/tuplesPerPage // descent amortized into 1

	lookupIO := lRows * pagesPerLookup
	lookupCPU := lRows*m.p.LookupWork + oRows*m.p.TupleWork
	return IndexNLTerms{
		lRows:          lRows,
		pagesPerLookup: pagesPerLookup,
		lookupCPU:      lookupCPU,
		lookupTime:     lookupIO*m.p.RandPageMs + lookupCPU*m.p.CPUTupleMs,
		randPageMs:     m.p.RandPageMs,
		lookupWork:     m.p.LookupWork,
		cpuMs:          m.p.CPUTupleMs,
		startup:        m.p.StartupMs,
		buf:            m.p.IndexBufBytes,
		energy:         m.ownEnergy(lookupCPU, lookupIO, 1),
	}
}

// Apply returns the cost vector of the prepared index-nested-loop join over
// an outer sub-plan with cost vector cl (see JoinTerms.Apply).
func (t *IndexNLTerms) Apply(cl *objective.Vector) (v objective.Vector) {
	t.ApplyTo(&v, cl)
	return v
}

// ApplyTo writes every entry of the prepared index-nested-loop join's cost
// vector over an outer sub-plan with cost vector cl into v, which must not
// alias cl (see JoinTerms.ApplyTo).
func (t *IndexNLTerms) ApplyTo(v, cl *objective.Vector) {
	v[objective.TotalTime] = cl[objective.TotalTime] + t.lookupTime + t.startup
	v[objective.StartupTime] = cl[objective.StartupTime] + t.pagesPerLookup*t.randPageMs +
		t.lookupWork*t.cpuMs + t.startup
	v[objective.IOLoad] = cl[objective.IOLoad] + t.lRows*t.pagesPerLookup
	v[objective.CPULoad] = cl[objective.CPULoad] + t.lookupCPU
	v[objective.Cores] = max(1, cl[objective.Cores])
	v[objective.DiskFootprint] = cl[objective.DiskFootprint]
	v[objective.BufferFootprint] = cl[objective.BufferFootprint] + t.buf
	v[objective.Energy] = cl[objective.Energy] + t.energy
	v[objective.TupleLoss] = cl[objective.TupleLoss] // inner side is loss-free
}

// sortWork returns the CPU work units to sort n tuples.
func (m *Model) sortWork(n float64) float64 {
	if n < 2 {
		return m.p.SortFactor
	}
	return m.p.SortFactor * n * math.Log2(n)
}

// ownEnergy returns the energy of an operator's own work at the given DOP.
// Energy grows with DOP (coordination overhead) while time shrinks — the
// time/energy anti-correlation the paper points out in Section 4.
func (m *Model) ownEnergy(cpu, io float64, dop int) float64 {
	return cpu*(1+m.p.EnergyCoordination*float64(dop-1))*m.p.CPUEnergyJ + io*m.p.IOEnergyJ
}

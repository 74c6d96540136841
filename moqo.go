// Package moqo is a multi-objective query optimizer library reproducing
// "Approximation Schemes for Many-Objective Query Optimization" (Trummer &
// Koch, SIGMOD 2014). It finds join query plans that minimize a weighted
// sum of up to nine cost objectives — execution time, startup time, IO
// load, CPU load, used cores, disk footprint, buffer footprint, energy,
// and tuple loss — optionally under per-objective upper bounds.
//
// Three multi-objective algorithms are provided:
//
//   - EXA: the exact Pareto-set dynamic program of Ganguly et al. —
//     optimal but exponential in the number of possible plans.
//   - RTA: the representative-tradeoffs approximation scheme for weighted
//     MOQO — guarantees a plan within factor Alpha of the weighted optimum
//     at a fraction of EXA's cost.
//   - IRA: the iterative-refinement approximation scheme for
//     bounded-weighted MOQO — guarantees an Alpha-approximate plan among
//     those respecting the bounds whenever such plans exist.
//
// The quickest way in:
//
//	cat := moqo.TPCHCatalog(1)
//	q, _ := moqo.TPCHQuery(3, cat)
//	res, err := moqo.Optimize(moqo.Request{
//		Query:      q,
//		Algorithm:  moqo.AlgoRTA,
//		Alpha:      1.5,
//		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy, moqo.TupleLoss},
//		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.2, moqo.TupleLoss: 10},
//	})
//
// Custom schemas and queries are built with NewCatalog/NewQuery; see the
// examples directory for complete programs, including the paper's Cloud
// provider and multi-user server scenarios.
//
// OptimizeContext adds cancellation (a cancelled context aborts the
// dynamic program promptly) and deadline handling (a context deadline
// degrades gracefully, like Request.Timeout).
//
// Every entry point is Request.Resolve plus one method of the Resolved it
// returns. Resolve is the one validator: it applies every check a
// request's content can fail, fixes the defaults and decides the algorithm
// (RTA for weighted, IRA for bounded-weighted MOQO). A caller that does
// more than one thing with a request — the moqod service (cmd/moqod)
// admits it, looks it up in two cache tiers and then runs it — resolves it
// once and asks the value: Resolved.CacheKey is the canonical result
// fingerprint plans are cached under and Resolved.FrontierKey its
// weight/bound-free prefix, both one string built on first use;
// Resolved.OptimizeSnapshot extracts a reusable FrontierSnapshot alongside
// the result, and Resolved.Reoptimize answers any later weight or bound
// change on the same FrontierKey from it — a SelectBest scan instead of a
// new optimization (see FrontierSnapshot). Optimize, OptimizeSnapshot,
// Reoptimize, Request.CacheKey and Request.FrontierKey are the one-shot
// forms.
package moqo

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// Objective identifies one cost objective.
type Objective = objective.ID

// The nine cost objectives.
const (
	TotalTime       = objective.TotalTime
	StartupTime     = objective.StartupTime
	IOLoad          = objective.IOLoad
	CPULoad         = objective.CPULoad
	Cores           = objective.Cores
	DiskFootprint   = objective.DiskFootprint
	BufferFootprint = objective.BufferFootprint
	Energy          = objective.Energy
	TupleLoss       = objective.TupleLoss
)

// AllObjectives returns the nine objectives in declaration order.
func AllObjectives() []Objective { return objective.All() }

// CostVector is a nine-dimensional plan cost vector.
type CostVector = objective.Vector

// ObjectiveSet is a set of objectives (used by CostVector formatting and
// comparison helpers).
type ObjectiveSet = objective.Set

// NewObjectiveSet builds an ObjectiveSet from objectives.
func NewObjectiveSet(ids ...Objective) ObjectiveSet { return objective.NewSet(ids...) }

// Catalog holds base-table statistics and indexes.
type Catalog = catalog.Catalog

// Query is a join query: base-table references plus equi-join edges. Build
// it on one goroutine (AddRelation, AddJoin, AddFKJoin); once built it is
// only read — no optimization writes to it — so it is safe for concurrent
// use: any number of Optimize, OptimizeBatch and Reoptimize calls may share
// one query object at the same time.
type Query = query.Query

// Plan is an operator tree with its cost vector.
type Plan = plan.Node

// Stats reports optimization effort (time, considered/stored plans,
// memory, Pareto-set size, timeout flag, IRA iterations).
type Stats = core.Stats

// CostParams are the calibration constants of the cost model.
type CostParams = costmodel.Params

// DefaultCostParams returns the default cost model calibration.
func DefaultCostParams() CostParams { return costmodel.Default() }

// TPCHCatalog builds the TPC-H catalog at the given scale factor.
func TPCHCatalog(scaleFactor float64) *Catalog { return catalog.TPCH(scaleFactor) }

// NewCatalog creates an empty catalog; add tables with AddTable and
// indexes with AddIndex.
func NewCatalog() *Catalog { return catalog.New() }

// NewQuery creates an empty query against a catalog; add relations with
// AddRelation and join predicates with AddJoin/AddFKJoin.
func NewQuery(name string, cat *Catalog) *Query { return query.New(name, cat) }

// Algorithm selects the optimization algorithm.
type Algorithm int

// Available algorithms. The zero value is AlgoAuto, so a Request that
// does not mention an algorithm gets the documented defaulting rule,
// while any explicitly set algorithm — including AlgoEXA — is honored
// as-is.
const (
	// AlgoAuto (the zero value) lets Optimize choose: AlgoRTA for
	// unbounded requests, AlgoIRA when bounds are present.
	AlgoAuto Algorithm = iota
	// AlgoEXA is the exact multi-objective dynamic program.
	AlgoEXA
	// AlgoRTA is the approximation scheme for weighted MOQO.
	AlgoRTA
	// AlgoIRA is the approximation scheme for bounded-weighted MOQO.
	AlgoIRA
	// AlgoSelinger is the single-objective baseline; it optimizes the
	// first objective listed in the request and ignores the others.
	AlgoSelinger
	// AlgoWeightedSum prunes on the scalar weighted cost. It is unsound
	// for objectives with diverse cost formulas (paper Example 1) and is
	// provided as an ablation baseline.
	AlgoWeightedSum
)

func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoEXA:
		return "exa"
	case AlgoRTA:
		return "rta"
	case AlgoIRA:
		return "ira"
	case AlgoSelinger:
		return "selinger"
	case AlgoWeightedSum:
		return "weightedsum"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts an algorithm name (as produced by String) back
// to its identifier.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range []Algorithm{AlgoAuto, AlgoEXA, AlgoRTA, AlgoIRA, AlgoSelinger, AlgoWeightedSum} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("moqo: unknown algorithm %q", s)
}

// Request describes one optimization problem.
type Request struct {
	// Query to optimize (required).
	Query *Query

	// Algorithm to run. The zero value is AlgoAuto: AlgoRTA for
	// unbounded requests, AlgoIRA when bounds are present. Any other
	// value — including an explicit AlgoEXA — is honored as-is.
	Algorithm Algorithm

	// Objectives to optimize (required: at least one). Weights on
	// objectives outside this set are rejected.
	Objectives []Objective

	// Weights assigns relative importance; objectives without an entry
	// get weight zero (they still constrain pruning as Pareto dimensions).
	Weights map[Objective]float64

	// Bounds sets upper bounds on objectives; omitted objectives are
	// unbounded. Bounds require AlgoIRA or AlgoEXA.
	Bounds map[Objective]float64

	// Alpha is the approximation precision for RTA/IRA (>= 1 and finite;
	// default 1.2).
	Alpha float64

	// Precisions optionally sets a per-objective approximation precision
	// (>= 1 and finite) instead of the uniform Alpha: coarse on tolerant
	// objectives, exact (1) on strict ones. Active objectives without an
	// entry are tracked exactly. Only supported by AlgoRTA (unbounded
	// requests); the weighted-cost guarantee is the maximum precision over
	// the weighted objectives.
	Precisions map[Objective]float64

	// Timeout caps optimization time (0 = none). On timeout the
	// optimizer degrades gracefully and flags Stats.TimedOut.
	Timeout time.Duration

	// CostParams overrides the cost model calibration (nil = defaults).
	CostParams *CostParams

	// MaxDOP caps operator parallelism (default 4).
	MaxDOP int

	// Workers shards each cardinality level of the optimizer's dynamic
	// program across this many goroutines. The selected plan, frontier,
	// and statistics are identical for every value (the levels of the
	// dynamic program synchronize on barriers); only wall-clock time
	// changes. 0 defaults to 1 (sequential); pass runtime.NumCPU() to
	// use the whole machine.
	Workers int

	// AllowSampling overrides whether sampling scans are in the plan
	// space (default: only when TupleLoss is an active objective).
	AllowSampling *bool

	// Shared, when non-nil, attaches a batch-scoped shared memo: the
	// optimizer looks up and publishes completed Pareto archives under
	// canonical subproblem keys, so requests over the same catalog whose
	// queries join overlapping table sets skip each other's solved
	// subproblems. Results are bit-for-bit identical with and without a
	// shared memo — like Workers, the knob changes effort, never the
	// answer, and is excluded from CacheKey/FrontierKey.
	// OptimizeBatch attaches one automatically; set it directly only to
	// share across hand-rolled Optimize calls.
	Shared *SharedMemo
}

// Result is the outcome of an optimization.
type Result struct {
	// Plan is the selected plan.
	Plan *Plan
	// Frontier holds the plans of the (approximate) Pareto frontier of
	// the full query, a byproduct of optimization usable for tradeoff
	// visualization.
	Frontier []*Plan
	// Stats reports the optimization effort.
	Stats Stats
	// Algorithm is the algorithm that actually ran — the requested one,
	// or the resolved default when the request left it as AlgoAuto.
	Algorithm Algorithm

	objs objective.Set
	q    *Query
	// front and row locate Plan in the run's frontier, whose per-row
	// memo PlanJSON reads.
	front *core.Frontier
	row   int32
}

// Objectives returns the active objective set of the run.
func (r *Result) Objectives() []Objective { return r.objs.IDs() }

// PlanText renders the selected plan as an indented operator tree.
func (r *Result) PlanText() string { return r.Plan.Format(r.q) }

// Explain renders the selected plan as an EXPLAIN-style tree with
// estimated cardinalities and per-node costs for the active objectives.
func (r *Result) Explain() string { return r.Plan.Explain(r.q, r.objs) }

// PlanJSON renders the selected plan as compact JSON (operators,
// parameters, estimated rows, per-node costs). The caller owns the returned
// slice. Behind it each frontier plan is rendered once: results that share
// a frontier — every Reoptimize answer from one FrontierSnapshot — copy the
// bytes the first of them rendered, as long as their queries name the
// relations alike.
func (r *Result) PlanJSON() ([]byte, error) {
	raw, err := r.front.PlanJSON(r.row, r.q, r.objs)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(raw), nil
}

// Cost returns the selected plan's cost for one objective.
func (r *Result) Cost(o Objective) float64 { return r.Plan.Cost[o] }

// FrontierVectors returns the cost vectors of the frontier plans.
func (r *Result) FrontierVectors() []CostVector {
	out := make([]CostVector, len(r.Frontier))
	for i, p := range r.Frontier {
		out[i] = p.Cost
	}
	return out
}

// Optimize solves one MOQO problem.
func Optimize(req Request) (*Result, error) {
	return OptimizeContext(context.Background(), req)
}

// OptimizeContext solves one MOQO problem under a context: Resolve, then
// Resolved.Optimize.
func OptimizeContext(ctx context.Context, req Request) (*Result, error) {
	r, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	return r.Optimize(ctx)
}

// Resolved is a Request after every check its content can fail, with the
// documented defaults applied: the active objective set, dense weights and
// bounds, the algorithm that will actually run (AlgoAuto resolved) and the
// effective alpha. It is what a request is validated, defaulted and keyed
// into exactly once — Optimize, OptimizeSnapshot, Reoptimize, CacheKey and
// FrontierKey are its methods, so the run, the admission verdict and both
// cache keys of one request cannot disagree about what the request is.
//
// Only the effort knobs outside both keys stay adjustable (SetWorkers,
// SetShared); everything else is fixed by Resolve. A Resolved is not safe
// for concurrent use — the keys are built on first use — but may be
// copied freely.
type Resolved struct {
	req   Request
	objs  objective.Set
	w     objective.Weights
	b     objective.Bounds
	alg   Algorithm
	alpha float64

	// key is the CacheKey, built on first use; its first fkLen bytes are
	// the FrontierKey (see buildKey).
	key   string
	fkLen int
}

// Resolve validates the request and resolves its defaults. Every error a
// request's content can cause is raised here — before any key is built,
// any quota charged or any dynamic program started — so nothing
// downstream re-checks a Resolved.
func (req Request) Resolve() (Resolved, error) {
	r := Resolved{req: req, b: objective.NoBounds()}
	if req.Query == nil {
		return Resolved{}, fmt.Errorf("moqo: no query")
	}
	if err := req.Query.Validate(); err != nil {
		return Resolved{}, fmt.Errorf("moqo: %w", err)
	}
	if len(req.Objectives) == 0 {
		return Resolved{}, fmt.Errorf("moqo: no objectives")
	}
	r.objs = objective.NewSet(req.Objectives...)

	for o, x := range req.Weights {
		if !r.objs.Contains(o) {
			return Resolved{}, fmt.Errorf("moqo: weight on inactive objective %v", o)
		}
		r.w[o] = x
	}
	if !r.w.Valid() {
		return Resolved{}, fmt.Errorf("moqo: weights must be finite and non-negative")
	}
	for o, x := range req.Bounds {
		if !r.objs.Contains(o) {
			return Resolved{}, fmt.Errorf("moqo: bound on inactive objective %v", o)
		}
		r.b[o] = x
	}
	if !r.b.Valid() {
		return Resolved{}, fmt.Errorf("moqo: bounds must be non-negative")
	}

	r.alg = req.Algorithm
	switch r.alg {
	case AlgoAuto:
		r.alg = AlgoIRA
		if r.b.Unbounded(r.objs) {
			r.alg = AlgoRTA
		}
	case AlgoRTA:
		if !r.b.Unbounded(r.objs) {
			return Resolved{}, fmt.Errorf("moqo: RTA does not support bounds; use AlgoIRA")
		}
	case AlgoEXA, AlgoIRA, AlgoSelinger, AlgoWeightedSum:
	default:
		return Resolved{}, fmt.Errorf("moqo: unknown algorithm %v", r.alg)
	}
	for o := range req.Precisions {
		if !r.objs.Contains(o) {
			return Resolved{}, fmt.Errorf("moqo: precision on inactive objective %v", o)
		}
	}
	if len(req.Precisions) > 0 {
		if r.alg != AlgoRTA {
			return Resolved{}, fmt.Errorf("moqo: Precisions requires AlgoRTA, got %v", r.alg)
		}
		if !r.precision().Valid() {
			return Resolved{}, fmt.Errorf("moqo: precisions must be at least 1")
		}
	}
	r.alpha = req.Alpha
	if r.alpha == 0 {
		r.alpha = 1.2
	}
	// The ranges of Alpha, MaxDOP and Workers are the engine's own;
	// AllowSampling has none, and set it spares Normalize allocating its
	// default for a value nobody reads.
	opts := r.coreOptions()
	opts.AllowSampling = new(bool)
	if _, err := opts.Normalize(); err != nil {
		return Resolved{}, err
	}
	return r, nil
}

// Request returns the request as resolved (effort knobs as last set).
func (r *Resolved) Request() Request { return r.req }

// SetWorkers changes the Workers knob of the resolved request — the
// selected plan, frontier, statistics and both keys are identical for
// every value (see Request.Workers).
func (r *Resolved) SetWorkers(n int) { r.req.Workers = n }

// SetShared attaches a batch's shared memo to the resolved request; like
// Workers it changes effort, never the answer or a key (see
// Request.Shared).
func (r *Resolved) SetShared(m *SharedMemo) { r.req.Shared = m }

// Algorithm reports the algorithm the request runs — AlgoAuto resolved to
// RTA or IRA, what "|alg=" in its CacheKey says.
func (r *Resolved) Algorithm() Algorithm { return r.alg }

// ReusableFrontier reports whether the algorithm produces a reusable
// frontier (EXA, RTA) or can seed from one (IRA) — the gate the moqod
// service applies before routing a request through the frontier tier.
// False for the single-objective baselines.
func (r *Resolved) ReusableFrontier() bool {
	switch r.alg {
	case AlgoEXA, AlgoRTA, AlgoIRA:
		return true
	}
	return false
}

// PredictedCost estimates the relative effort of the request's dynamic
// program (core.PredictCost under the resolved algorithm): what admission
// checks and what a batch schedules by.
func (r *Resolved) PredictedCost() float64 {
	return core.PredictCost(len(r.req.Query.Relations), len(r.req.Objectives), r.alg.String())
}

// ErrInternalPanic marks an optimization abandoned because a worker
// panicked inside the dynamic program. The panic is contained — the
// worker pool winds down cleanly and only the one request fails — and
// the wrapped error text carries the panic value and stack. Matches
// with errors.Is.
var ErrInternalPanic = core.ErrEnginePanic

// Optimize solves the resolved problem under a context. Cancelling the
// context (a client disconnect, an explicit cancel) aborts the dynamic
// program promptly — within about a thousand candidate plans — and returns
// the context's error. A context *deadline* instead folds into the same
// graceful degradation as Request.Timeout (paper Section 5.1): the earlier
// of the two fires, untreated table sets get a single best-weighted plan,
// and the call still returns a Result with Stats.TimedOut set.
func (r *Resolved) Optimize(ctx context.Context) (*Result, error) {
	res, _, err := r.run(ctx)
	return res, err
}

// run is the shared body of Optimize and OptimizeSnapshot: the result, and
// the run's frontier snapshot (nil for a degraded run and the baselines).
func (r *Resolved) run(ctx context.Context) (*Result, *core.FrontierSnapshot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m, opts := r.model(), r.coreOptions()

	var res core.Result
	var err error
	switch r.alg {
	case AlgoEXA:
		res, err = core.EXAContext(ctx, m, r.w, r.b, opts)
	case AlgoRTA:
		if len(r.req.Precisions) > 0 {
			res, err = core.RTAVectorContext(ctx, m, r.w, r.precision(), opts)
		} else {
			res, err = core.RTAContext(ctx, m, r.w, opts)
		}
	case AlgoIRA:
		res, err = core.IRAContext(ctx, m, r.w, r.b, opts)
	case AlgoSelinger:
		res, err = core.SelingerContext(ctx, m, r.req.Objectives[0], opts)
	case AlgoWeightedSum:
		res, err = core.WeightedSumDPContext(ctx, m, r.w, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	out, err := r.newResult(res)
	if err != nil {
		return nil, nil, err
	}
	return out, res.Snapshot, nil
}

// precision is the request's per-objective precision vector: exact (1) on
// every objective Precisions does not mention.
func (r *Resolved) precision() objective.Precision {
	prec := objective.UniformPrecision(1, r.objs)
	for o, x := range r.req.Precisions {
		prec = prec.With(o, x)
	}
	return prec
}

// model builds the request's cost model, one per run: it holds the run's
// table of cardinality estimates (see costmodel.Model).
func (r *Resolved) model() *costmodel.Model {
	params := costmodel.Default()
	if r.req.CostParams != nil {
		params = *r.req.CostParams
	}
	return costmodel.New(r.req.Query, params)
}

// coreOptions is the one place a request's knobs become core.Options, so
// every entry point (cold, snapshot-returning, seeded re-optimization)
// honors the same set.
func (r *Resolved) coreOptions() core.Options {
	opts := core.Options{
		Objectives:    r.objs,
		Alpha:         r.alpha,
		Timeout:       r.req.Timeout,
		MaxDOP:        r.req.MaxDOP,
		AllowSampling: r.req.AllowSampling,
		Workers:       r.req.Workers,
	}
	if r.req.Shared != nil {
		opts.Shared = r.req.Shared.m
	}
	return opts
}

// newResult converts an engine result into the public Result.
func (r *Resolved) newResult(res core.Result) (*Result, error) {
	if res.Best == nil {
		return nil, fmt.Errorf("moqo: no plan found")
	}
	return &Result{
		Plan:      res.Best,
		Frontier:  res.Frontier.Plans(),
		Stats:     res.Stats,
		Algorithm: r.alg,
		objs:      r.objs,
		q:         r.req.Query,
		front:     res.Frontier,
		row:       res.BestRow,
	}, nil
}

// TPCHQuery builds TPC-H query num (1-22) against the catalog. The query
// covers the largest from-clause of the TPC-H statement with approximate
// filter selectivities (see internal/workload).
func TPCHQuery(num int, cat *Catalog) (*Query, error) {
	return tpchQuery(num, cat)
}

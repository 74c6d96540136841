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
// degrades gracefully, like Request.Timeout). Request.CacheKey computes
// the canonical result fingerprint that the moqod service (cmd/moqod)
// uses to cache plans across requests, and Request.FrontierKey its
// weight/bound-free prefix: OptimizeSnapshot extracts a reusable
// FrontierSnapshot alongside the result, and Reoptimize answers any
// later weight or bound change on the same FrontierKey from it — a
// SelectBest scan instead of a new optimization (see FrontierSnapshot).
package moqo

import (
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

// Query is a join query: base-table references plus equi-join edges.
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

// EnumerationStrategy selects how the optimizer materializes and splits
// the join search space. The strategy never changes the answer — the
// engine emits candidates in the same canonical order under every
// strategy, so plans, frontiers and candidate counts are identical (and
// the plan cache ignores the knob, like Workers) — it changes how much
// enumeration work finding the answer takes.
type EnumerationStrategy int

// Available enumeration strategies. The zero value is EnumAuto, so a
// Request that does not mention enumeration gets the graph-aware
// strategy exactly when the join graph supports it.
const (
	// EnumAuto (the zero value) picks EnumGraph for connected join
	// graphs and EnumExhaustive otherwise.
	EnumAuto EnumerationStrategy = iota
	// EnumGraph walks the join graph: only connected table sets are
	// materialized, and the candidate loop enumerates only
	// predicate-connected csg-cmp splits. Chains, cycles, stars and
	// trees pay polynomial enumeration work instead of 2^n, which is
	// what makes 20+ table sparse queries practical. Falls back to
	// EnumExhaustive when the join graph is disconnected.
	EnumGraph
	// EnumExhaustive scans all 2^n subsets and tries every 2-split,
	// filtering by connectivity afterwards — the baseline the
	// differential tests compare against, and the only possible
	// strategy for disconnected join graphs.
	EnumExhaustive
)

func (e EnumerationStrategy) String() string {
	switch e {
	case EnumAuto:
		return "auto"
	case EnumGraph:
		return "graph"
	case EnumExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("enumeration(%d)", int(e))
	}
}

// ParseEnumerationStrategy converts a strategy name (as produced by
// String) back to its identifier.
func ParseEnumerationStrategy(s string) (EnumerationStrategy, error) {
	for _, e := range []EnumerationStrategy{EnumAuto, EnumGraph, EnumExhaustive} {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("moqo: unknown enumeration strategy %q", s)
}

// coreStrategy maps the public knob onto the engine's.
func (e EnumerationStrategy) coreStrategy() (core.EnumerationStrategy, error) {
	switch e {
	case EnumAuto:
		return core.EnumAuto, nil
	case EnumGraph:
		return core.EnumGraph, nil
	case EnumExhaustive:
		return core.EnumExhaustive, nil
	default:
		return 0, fmt.Errorf("moqo: unknown enumeration strategy %v", e)
	}
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

	// Alpha is the approximation precision for RTA/IRA (>= 1; default 1.2).
	Alpha float64

	// Precisions optionally sets a per-objective approximation precision
	// (>= 1) instead of the uniform Alpha: coarse on tolerant objectives,
	// exact (1) on strict ones. Active objectives without an entry are
	// tracked exactly. Only supported by AlgoRTA (unbounded requests);
	// the weighted-cost guarantee is the maximum precision over the
	// weighted objectives.
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

	// Enumeration selects the search-space enumeration strategy. The
	// zero value (EnumAuto) uses the graph-aware csg-cmp enumeration
	// whenever the join graph is connected — polynomial enumeration work
	// on chains, cycles, stars and trees instead of the exhaustive scan's
	// 2^n — and the exhaustive scan otherwise. Results are identical
	// under every strategy; only enumeration work (Stats.EnumSets,
	// Stats.EnumSplits) and wall-clock time change.
	Enumeration EnumerationStrategy

	// AllowSampling overrides whether sampling scans are in the plan
	// space (default: only when TupleLoss is an active objective).
	AllowSampling *bool

	// Shared, when non-nil, attaches a batch-scoped shared memo: the
	// optimizer looks up and publishes completed Pareto archives under
	// canonical subproblem keys, so requests over the same catalog whose
	// queries join overlapping table sets skip each other's solved
	// subproblems. Results are bit-for-bit identical with and without a
	// shared memo — like Workers and Enumeration, the knob changes effort,
	// never the answer, and is excluded from CacheKey/FrontierKey.
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
}

// Objectives returns the active objective set of the run.
func (r *Result) Objectives() []Objective { return r.objs.IDs() }

// PlanText renders the selected plan as an indented operator tree.
func (r *Result) PlanText() string { return r.Plan.Format(r.q) }

// Explain renders the selected plan as an EXPLAIN-style tree with
// estimated cardinalities and per-node costs for the active objectives.
func (r *Result) Explain() string { return r.Plan.Explain(r.q, r.objs) }

// PlanJSON renders the selected plan as indented JSON (operators,
// parameters, estimated rows, per-node costs).
func (r *Result) PlanJSON() ([]byte, error) { return r.Plan.JSON(r.q, r.objs) }

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

// resolve validates the request and resolves the documented defaults: the
// active objective set, dense weights and bounds, the algorithm that will
// actually run (AlgoAuto resolved), and the effective alpha. Both OptimizeContext and CacheKey build on it,
// so a cache key always reflects the run that would happen.
func (req Request) resolve() (objs objective.Set, w objective.Weights, b objective.Bounds, alg Algorithm, alpha float64, err error) {
	if req.Query == nil {
		err = fmt.Errorf("moqo: no query")
		return
	}
	if err = req.Query.Validate(); err != nil {
		err = fmt.Errorf("moqo: %w", err)
		return
	}
	if len(req.Objectives) == 0 {
		err = fmt.Errorf("moqo: no objectives")
		return
	}
	objs = objective.NewSet(req.Objectives...)

	for o, x := range req.Weights {
		if !objs.Contains(o) {
			err = fmt.Errorf("moqo: weight on inactive objective %v", o)
			return
		}
		w[o] = x
	}
	b = objective.NoBounds()
	for o, x := range req.Bounds {
		if !objs.Contains(o) {
			err = fmt.Errorf("moqo: bound on inactive objective %v", o)
			return
		}
		b[o] = x
	}

	alg = req.Algorithm
	if alg == AlgoAuto {
		alg = AlgoIRA
		if b.Unbounded(objs) {
			alg = AlgoRTA
		}
	}
	for o := range req.Precisions {
		if !objs.Contains(o) {
			err = fmt.Errorf("moqo: precision on inactive objective %v", o)
			return
		}
	}
	if len(req.Precisions) > 0 && alg != AlgoRTA {
		err = fmt.Errorf("moqo: Precisions requires AlgoRTA, got %v", alg)
		return
	}
	alpha = req.Alpha
	if alpha == 0 {
		alpha = 1.2
	}
	return objs, w, b, alg, alpha, nil
}

// ErrInternalPanic marks an optimization abandoned because a worker
// panicked inside the dynamic program. The panic is contained — the
// worker pool winds down cleanly and only the one request fails — and
// the wrapped error text carries the panic value and stack. Matches
// with errors.Is.
var ErrInternalPanic = core.ErrEnginePanic

// OptimizeContext solves one MOQO problem under a context. Cancelling the
// context (a client disconnect, an explicit cancel) aborts the dynamic
// program promptly — within about a thousand candidate plans — and returns
// the context's error. A context *deadline* instead folds into the same
// graceful degradation as Request.Timeout (paper Section 5.1): the earlier
// of the two fires, untreated table sets get a single best-weighted plan,
// and the call still returns a Result with Stats.TimedOut set.
func OptimizeContext(ctx context.Context, req Request) (*Result, error) {
	res, _, err := optimizeContext(ctx, req, false)
	return res, err
}

// optimizeContext is the shared body of OptimizeContext (capture=false)
// and OptimizeSnapshotContext (capture=true, which additionally extracts
// the compact frontier snapshot of the run for the frontier cache).
func optimizeContext(ctx context.Context, req Request, capture bool) (*Result, *core.FrontierSnapshot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	objs, w, b, alg, alpha, err := req.resolve()
	if err != nil {
		return nil, nil, err
	}

	m, opts, err := req.coreOptions(objs, alpha, capture)
	if err != nil {
		return nil, nil, err
	}

	var res core.Result
	switch alg {
	case AlgoEXA:
		res, err = core.EXAContext(ctx, m, w, b, opts)
	case AlgoRTA:
		if !b.Unbounded(objs) {
			return nil, nil, fmt.Errorf("moqo: RTA does not support bounds; use AlgoIRA")
		}
		if len(req.Precisions) > 0 {
			// Membership was validated by resolve.
			prec := objective.UniformPrecision(1, objs)
			for o, x := range req.Precisions {
				prec = prec.With(o, x)
			}
			res, err = core.RTAVectorContext(ctx, m, w, prec, opts)
		} else {
			res, err = core.RTAContext(ctx, m, w, opts)
		}
	case AlgoIRA:
		res, err = core.IRAContext(ctx, m, w, b, opts)
	case AlgoSelinger:
		res, err = core.SelingerContext(ctx, m, req.Objectives[0], opts)
	case AlgoWeightedSum:
		res, err = core.WeightedSumDPContext(ctx, m, w, opts)
	default:
		return nil, nil, fmt.Errorf("moqo: unknown algorithm %v", alg)
	}
	if err != nil {
		return nil, nil, err
	}
	out, err := newResult(req, res, alg, objs)
	if err != nil {
		return nil, nil, err
	}
	return out, res.Snapshot, nil
}

// coreOptions builds the cost model and the engine options of a resolved
// request — the one place a Request's knobs become core.Options, so every
// entry point (cold, snapshot-capturing, seeded re-optimization) honors
// the same set.
func (req Request) coreOptions(objs objective.Set, alpha float64, capture bool) (*costmodel.Model, core.Options, error) {
	params := costmodel.Default()
	if req.CostParams != nil {
		params = *req.CostParams
	}
	enum, err := req.Enumeration.coreStrategy()
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := core.Options{
		Objectives:      objs,
		Alpha:           alpha,
		Timeout:         req.Timeout,
		MaxDOP:          req.MaxDOP,
		AllowSampling:   req.AllowSampling,
		Workers:         req.Workers,
		Enumeration:     enum,
		CaptureSnapshot: capture,
	}
	if req.Shared != nil {
		opts.Shared = req.Shared.m
	}
	return costmodel.New(req.Query, params), opts, nil
}

// newResult converts an engine result into the public Result.
func newResult(req Request, res core.Result, alg Algorithm, objs objective.Set) (*Result, error) {
	if res.Best == nil {
		return nil, fmt.Errorf("moqo: no plan found")
	}
	return &Result{
		Plan:      res.Best,
		Frontier:  res.Frontier.Plans(),
		Stats:     res.Stats,
		Algorithm: alg,
		objs:      objs,
		q:         req.Query,
	}, nil
}

// TPCHQuery builds TPC-H query num (1-22) against the catalog. The query
// covers the largest from-clause of the TPC-H statement with approximate
// filter selectivities (see internal/workload).
func TPCHQuery(num int, cat *Catalog) (*Query, error) {
	return tpchQuery(num, cat)
}

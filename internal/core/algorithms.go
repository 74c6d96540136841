package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
)

// Result is the outcome of one optimization run.
type Result struct {
	// Best is the selected plan (nil only for queries with no plans,
	// which cannot occur for validated queries).
	Best *plan.Node
	// BestRow is the frontier row Best was selected from: Best is
	// Frontier.Plans()[BestRow], and Frontier.PlanJSON(BestRow, ...) is its
	// rendering.
	BestRow int32
	// Frontier is the (approximate) Pareto frontier of the full table set
	// — the paper's "Pareto frontier as byproduct of optimization".
	// BestRow is Frontier.SelectBest(w, b).
	Frontier *Frontier
	// Stats reports the optimization effort.
	Stats Stats
	// Snapshot is Frontier with the run's precision and effort: the
	// weight/bound-free form a frontier cache stores (see FrontierSnapshot).
	// Set by EXA, RTA, RTAVector and IRA when the run completed without
	// degrading; nil for a degraded run and for the scalar baselines.
	Snapshot *FrontierSnapshot
}

// EXA runs the exact multi-objective dynamic program of Ganguly et al.
// (paper Algorithm 1): it computes the Pareto plan set of the query and
// selects the best plan for the given weights and bounds. Exponential in
// the number of possible plans (Theorems 1-2); use the timeout.
func EXA(m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	return EXAContext(context.Background(), m, w, b, opts)
}

// EXAContext is EXA under a context: cancellation aborts the dynamic
// program promptly and returns ctx's error, while a context deadline folds
// into the timeout/degrade path of Options.Timeout (the run still returns
// a — degraded — plan with Stats.TimedOut set).
func EXAContext(ctx context.Context, m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	if !w.Valid() || !b.Valid() {
		return Result{}, fmt.Errorf("core: invalid weights or bounds")
	}
	if err := startErr(ctx); err != nil {
		return Result{}, err
	}
	start := time.Now()
	e := newEngine(ctx, m, opts, 1, w)
	flat := e.run()
	if err := e.cancelErr(); err != nil {
		return Result{}, err
	}
	return e.finish(flat, w, b, 1, e.stats(start)), nil
}

// startErr rejects a context that is already cancelled before any work
// starts. A context whose *deadline* has passed is let through: the run
// enters degraded mode immediately and still returns a plan, mirroring a
// pre-expired Options.Timeout.
func startErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
		return err
	}
	return nil
}

// RTA runs the representative-tradeoffs algorithm (paper Algorithm 2), an
// approximation scheme for weighted MOQO: it computes an αU-approximate
// Pareto set using internal pruning precision αi = αU^(1/|Q|) and selects
// the plan with minimal weighted cost. The returned plan's weighted cost is
// within factor αU of the optimum (Theorem 3 + Corollary 1). Bounds are not
// supported — use IRA for bounded-weighted MOQO.
func RTA(m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	return RTAContext(context.Background(), m, w, opts)
}

// RTAContext is RTA under a context (see EXAContext for the cancellation
// and deadline semantics).
func RTAContext(ctx context.Context, m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	if !w.Valid() {
		return Result{}, fmt.Errorf("core: invalid weights")
	}
	if err := startErr(ctx); err != nil {
		return Result{}, err
	}
	start := time.Now()
	flat, e := rtaParetoPlans(ctx, m, w, opts, opts.Alpha)
	if err := e.cancelErr(); err != nil {
		return Result{}, err
	}
	return e.finish(flat, w, objective.NoBounds(), opts.Alpha, e.stats(start)), nil
}

// rtaParetoPlans is FindParetoPlans of Algorithm 2: it derives the internal
// pruning precision αi = setAlpha^(1/|Q|) from the requested Pareto-set
// precision and runs the shared engine. The returned archive is the DP's
// own: IRA evaluates its stopping condition on its rows directly and
// extracts a Frontier only for the iteration it actually returns.
func rtaParetoPlans(ctx context.Context, m *costmodel.Model, w objective.Weights, opts Options, setAlpha float64) (*pareto.FlatArchive, *engine) {
	n := m.Query().NumRelations()
	alphaInternal := math.Pow(setAlpha, 1/float64(n))
	if alphaInternal < 1 {
		alphaInternal = 1
	}
	e := newEngine(ctx, m, opts, alphaInternal, w)
	return e.run(), e
}

// maxIRAIterations caps the refinement loop. Theorem 8 guarantees
// termination for exact arithmetic; the cap guards against the iteration
// precision underflowing to exactly 1 without the stopping condition
// having been re-evaluated, and is far above the iteration counts the
// paper reports (< 100).
const maxIRAIterations = 256

// IRA runs the iterative-refinement algorithm (paper Algorithm 3), an
// approximation scheme for bounded-weighted MOQO. Every iteration runs the
// RTA's FindParetoPlans at precision α(i) = αU^(2^(-i/(3l-3))) and the loop
// stops once no plan within the relaxed bounds α·B could improve on the
// incumbent by more than the approximation slack — which certifies the
// incumbent αU-approximate (Theorem 6).
func IRA(m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	return IRAContext(context.Background(), m, w, b, opts)
}

// IRAContext is IRA under a context: cancellation aborts the current
// refinement iteration and returns ctx's error; a context deadline bounds
// the whole refinement loop exactly like Options.Timeout (the incumbent of
// the last completed iteration is returned with Stats.TimedOut set).
func IRAContext(ctx context.Context, m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	return iraRun(ctx, m, w, b, opts, nil)
}

// IRASeededContext runs IRA seeded from a cached frontier snapshot of the
// same weight/bound-free request (the frontier cache's re-weight path for
// bounded MOQO). Seeding is sound because the snapshot records its own
// set-level precision: if the Theorem 6 stopping condition already holds
// over the snapshot at that precision — or the snapshot is exact — the
// answer is a SelectBest scan and no dynamic program runs at all.
// Otherwise the refinement loop starts at the first iteration strictly
// finer than the snapshot instead of starting cold, skipping the coarse
// iterations the snapshot already subsumes. Either way the returned plan
// carries the same guarantee as cold IRA: it is certified αU-approximate
// by the same stopping condition (or by an exact final iteration).
func IRASeededContext(ctx context.Context, m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options, seed *FrontierSnapshot) (Result, error) {
	if seed == nil {
		return Result{}, fmt.Errorf("core: nil frontier seed")
	}
	return iraRun(ctx, m, w, b, opts, seed)
}

// iraRun is the shared body of IRAContext (seed == nil: cold) and
// IRASeededContext.
func iraRun(ctx context.Context, m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options, seed *FrontierSnapshot) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	if !w.Valid() || !b.Valid() {
		return Result{}, fmt.Errorf("core: invalid weights or bounds")
	}
	if seed != nil && seed.Objectives() != opts.Objectives {
		return Result{}, fmt.Errorf("core: frontier seed objectives %v do not match request %v", seed.Objectives(), opts.Objectives)
	}
	if err := startErr(ctx); err != nil {
		return Result{}, err
	}
	start := time.Now()
	alphaU := opts.Alpha

	if seed != nil && (seed.setAlpha <= 1 || iraStop(seed.costs, w, b, opts.Objectives, seed.setAlpha, alphaU)) {
		// The seed alone certifies an αU-approximate answer: it is exact,
		// or the stopping condition holds over it at its own precision.
		res, err := SelectFromSnapshot(seed, w, b)
		if err != nil {
			return Result{}, err
		}
		res.Stats.Duration = time.Since(start)
		return res, nil
	}
	l := opts.Objectives.Len()
	denom := float64(3*l - 3)
	if denom < 1 {
		denom = 1
	}

	var total Stats
	// The refinement loop works on the archives' rows; a Frontier is
	// extracted once, for the iteration actually returned.
	var finalFlat *pareto.FlatArchive
	var finalEngine *engine
	lastAlpha := alphaU
	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	for i := 1; ; i++ {
		// Precision refinement policy: exponent halves every 3l-3
		// iterations, so per-iteration cost roughly doubles (Theorem 7)
		// and redundant work across iterations stays negligible.
		alpha := math.Pow(alphaU, math.Exp2(-float64(i)/denom))
		if alpha < 1 {
			alpha = 1
		}
		if seed != nil && alpha >= seed.setAlpha && alpha > 1 && i < maxIRAIterations {
			// The seed's precision already subsumes this iteration (and its
			// stopping condition was evaluated above): skip straight to the
			// strictly finer iterations. The i-cap keeps a pathological
			// near-1 seed precision from skipping forever.
			continue
		}
		lastAlpha = alpha

		iterOpts := opts
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				if finalFlat != nil {
					total.TimedOut = true
					break
				}
				// The deadline expired before the first iteration could
				// run (a pre-expired context deadline, or a sub-
				// microsecond Timeout). Run one iteration anyway with an
				// immediately-expiring budget: the engine's degraded mode
				// still produces a plan, honoring the contract that
				// deadlines degrade rather than fail.
				remaining = time.Nanosecond
			}
			iterOpts.Timeout = remaining
		}
		iterStart := time.Now()
		flat, e := rtaParetoPlans(ctx, m, w, iterOpts, alpha)
		if err := e.cancelErr(); err != nil {
			return Result{}, err
		}
		iterStats := e.stats(iterStart)
		total.merge(iterStats)
		total.IterationDetail = append(total.IterationDetail, IterationInfo{
			Alpha:        alpha,
			Duration:     iterStats.Duration,
			Considered:   iterStats.Considered,
			FrontierSize: flat.Len(),
		})
		finalFlat, finalEngine = flat, e

		if iraStop(flat.Rows(), w, b, opts.Objectives, alpha, alphaU) {
			break
		}
		if alpha == 1 || i >= maxIRAIterations || total.TimedOut {
			// alpha == 1 means the iteration was exact: the incumbent of
			// this iteration is optimal.
			break
		}
	}
	total.Duration = time.Since(start)
	// A seeded run that had to refine still reused the frontier: the seed
	// absorbed every iteration at or above its precision, and the wire
	// contract (stats.reused_frontier) covers seeded refinements too.
	total.ReusedFrontier = seed != nil
	return finalEngine.finish(finalFlat, w, b, lastAlpha, total), nil
}

// iraStop evaluates the termination condition of Algorithm 3:
//
//	¬∃ p ∈ P : c(p) ⪯ αB  ∧  C_W(c(p))/α < C_W(c(popt))/αU
//
// where popt is the incumbent: the best plan of P that respects the strict
// bounds. If no plan within the *relaxed* bounds αB has a weighted cost low
// enough that a true Pareto plan hiding behind it (at most factor α
// cheaper and at most factor α over the bounds) could beat the incumbent's
// αU-slack, the incumbent is certifiably αU-approximate (Theorem 6).
//
// rows are the cost rows (stride nine) of a frontier at precision alpha —
// the flat archive of the running iteration, or a cached FrontierSnapshot
// at its recorded precision (the seeded path).
//
// When P holds no strictly-in-bounds plan the incumbent's weighted cost is
// taken as +Inf: any plan within the relaxed bounds then forces another
// refinement iteration, because a bound-respecting true optimum may still
// be hiding behind it. (Reading the incumbent through SelectBest's
// infeasible *fallback* instead would let the loop stop with an
// out-of-bounds plan while feasible plans exist, voiding the guarantee of
// Definition 3, under which any bound-violating plan has relative cost
// infinity whenever some plan respects the bounds.) If additionally no
// plan respects even the relaxed bounds, no feasible plan can exist at all
// — the α-approximate Pareto set would contain a within-αB representative
// of it — and stopping with the weighted-cost fallback is sound.
func iraStop(rows []float64, w objective.Weights, b objective.Bounds,
	objs objective.Set, alpha, alphaU float64) bool {
	threshold := math.Inf(1)
	for i := 0; i < len(rows); i += costStride {
		v := objective.Vector(rows[i : i+costStride])
		if b.Respects(v, objs) {
			if c := w.Cost(v) / alphaU; c < threshold {
				threshold = c
			}
		}
	}
	for i := 0; i < len(rows); i += costStride {
		v := objective.Vector(rows[i : i+costStride])
		if b.RespectsRelaxed(v, alpha, objs) && w.Cost(v)/alpha < threshold {
			return false
		}
	}
	return true
}

// Selinger runs a single-objective Selinger-style bushy dynamic program
// minimizing one objective. It is the paper's single-objective baseline
// (Figure 5's 1-objective measurements, Figure 7's complexity comparison)
// and the tool used to derive per-objective minima for bounds generation.
func Selinger(m *costmodel.Model, obj objective.ID, opts Options) (Result, error) {
	return SelingerContext(context.Background(), m, obj, opts)
}

// SelingerContext is Selinger under a context (see WeightedSumDPContext).
func SelingerContext(ctx context.Context, m *costmodel.Model, obj objective.ID, opts Options) (Result, error) {
	opts.Objectives = objective.NewSet(obj)
	return WeightedSumDPContext(ctx, m, objective.SingleWeight(obj), opts)
}

// WeightedSumDP runs a dynamic program that prunes on the scalar weighted
// cost alone. For a single objective this is exactly Selinger's algorithm.
// For multiple objectives with diverse cost formulas it is UNSOUND — the
// paper's Example 1 shows the single-objective principle of optimality
// breaks — and it is included as the ablation baseline demonstrating that
// unsoundness (see the package tests).
func WeightedSumDP(m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	return WeightedSumDPContext(context.Background(), m, w, opts)
}

// WeightedSumDPContext is WeightedSumDP under a context. The scalar
// dynamic program has no degraded mode, so only cancellation interrupts
// it (aborting with ctx's error); deadlines are observed solely between
// its enumeration steps via the shared latch and never truncate the
// candidate enumeration.
func WeightedSumDPContext(ctx context.Context, m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	if opts.Objectives.Len() == 0 {
		opts.Objectives = w.Active()
	}
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	if !w.Valid() {
		return Result{}, fmt.Errorf("core: invalid weights")
	}
	if err := startErr(ctx); err != nil {
		return Result{}, err
	}
	start := time.Now()
	e := newEngine(ctx, m, opts, 1, w)
	flat := e.runScalar(func(v objective.Vector) float64 { return w.Cost(v) })
	if err := e.cancelErr(); err != nil {
		return Result{}, err
	}
	// The scalar program keeps one plan per set: its frontier is that plan
	// (row 0, BestRow's zero value), and — being weight-specific — is never
	// returned as a snapshot.
	f := &Frontier{}
	e.extract(f, flat)
	res := Result{Frontier: f, Stats: e.stats(start)}
	if f.Len() > 0 {
		res.Best = f.Plans()[0]
	}
	return res, nil
}

// ObjectiveMinima returns, for every active objective, the minimal
// achievable cost over the plan space, computed by one single-objective DP
// per objective. The paper's test-case generator draws bounds for
// unbounded-domain objectives from [1,2] times these minima.
func ObjectiveMinima(m *costmodel.Model, opts Options) (objective.Vector, error) {
	return ObjectiveMinimaContext(context.Background(), m, opts)
}

// ObjectiveMinimaContext is ObjectiveMinima under a context; cancellation
// aborts between (and within) the per-objective dynamic programs.
func ObjectiveMinimaContext(ctx context.Context, m *costmodel.Model, opts Options) (objective.Vector, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return objective.Vector{}, err
	}
	var minima objective.Vector
	for _, o := range opts.Objectives.IDs() {
		sopts := opts
		sopts.Objectives = opts.Objectives // keep sampling decision stable
		res, err := singleObjectiveMin(ctx, m, o, sopts)
		if err != nil {
			return objective.Vector{}, err
		}
		minima[o] = res
	}
	return minima, nil
}

// singleObjectiveMin minimizes one objective over the plan space defined
// by opts (including its sampling decision, which must match the main
// run's plan space for the minima to be meaningful bounds).
func singleObjectiveMin(ctx context.Context, m *costmodel.Model, o objective.ID, opts Options) (float64, error) {
	if err := startErr(ctx); err != nil {
		return 0, err
	}
	e := newEngine(ctx, m, opts, 1, objective.SingleWeight(o))
	flat := e.runScalar(func(v objective.Vector) float64 { return v[o] })
	if err := e.cancelErr(); err != nil {
		return 0, err
	}
	if flat == nil || flat.Len() == 0 {
		return 0, fmt.Errorf("core: no plan found for objective %v", o)
	}
	return flat.CostRow(0)[o], nil
}

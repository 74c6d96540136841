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
	// Set by EXA, RTA and IRA when the run completed without
	// degrading; nil for a degraded run and for the scalar baselines.
	Snapshot *FrontierSnapshot
}

// EXA runs the exact multi-objective dynamic program of Ganguly et al.
// (paper Algorithm 1): it computes the Pareto plan set of the query and
// selects the best plan for the given weights and bounds. Exponential in
// the number of possible plans (Theorems 1-2); bound it with a context
// deadline (EXAContext).
func EXA(m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	return EXAContext(context.Background(), m, w, b, opts)
}

// EXAContext is EXA under a context: cancellation aborts the dynamic
// program promptly and returns ctx's error, while a passed context deadline
// degrades it (paper Section 5.1: the run still returns a — degraded — plan
// with Stats.TimedOut set).
func EXAContext(ctx context.Context, m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	opts, start, err := begin(ctx, opts, w, b)
	if err != nil {
		return Result{}, err
	}
	e := newEngine(ctx, m, opts, exactPrecision, w)
	return e.result(e.run(), w, b, start)
}

// exactPrecision is the set precision of EXA and the keep-best programs.
var exactPrecision = objective.UniformPrecision(1, objective.AllSet())

// begin is the prologue of every entry point that runs the dynamic
// program: it normalizes opts, checks the weights and bounds, rejects a
// context cancelled before any work starts (startErr), and starts the
// clock the run's Stats.Duration is read from.
func begin(ctx context.Context, opts Options, w objective.Weights, b objective.Bounds) (Options, time.Time, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return opts, time.Time{}, err
	}
	if !w.Valid() || !b.Valid() {
		return opts, time.Time{}, fmt.Errorf("core: invalid weights or bounds")
	}
	if err := startErr(ctx); err != nil {
		return opts, time.Time{}, err
	}
	return opts, time.Now(), nil
}

// result is the epilogue of EXA, RTA and the keep-best programs: a run
// abandoned by its context, a worker panic or an invalid query reports that
// error (cancelErr); any other run is extracted and selected over (finish).
func (e *engine) result(flat *pareto.FlatArchive, w objective.Weights, b objective.Bounds, start time.Time) (Result, error) {
	if err := e.cancelErr(); err != nil {
		return Result{}, err
	}
	return e.finish(flat, w, b, e.stats(start)), nil
}

// startErr rejects a context that is already cancelled before any work
// starts. A context whose *deadline* has passed is let through: the run
// enters degraded mode at its first poll and still returns a plan.
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
// within factor αU of the optimum (Theorem 3 + Corollary 1). With
// Options.Precision set, αU is that vector, taken per objective. Bounds are
// not supported — use IRA for bounded-weighted MOQO.
func RTA(m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	return RTAContext(context.Background(), m, w, opts)
}

// RTAContext is RTA under a context (see EXAContext for the cancellation
// and deadline semantics).
func RTAContext(ctx context.Context, m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	opts, start, err := begin(ctx, opts, w, objective.NoBounds())
	if err != nil {
		return Result{}, err
	}
	set := opts.Precision
	if set == (objective.Precision{}) {
		set = objective.UniformPrecision(opts.Alpha, opts.Objectives)
	}
	e := newEngine(ctx, m, opts, set, w)
	return e.result(e.run(), w, objective.NoBounds(), start)
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
// the whole refinement loop (the incumbent of the last iteration is
// returned with Stats.TimedOut set).
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
	if opts.Precision != (objective.Precision{}) {
		return Result{}, fmt.Errorf("core: IRA takes no per-objective precision (Options.Precision is RTA's)")
	}
	opts, start, err := begin(ctx, opts, w, b)
	if err != nil {
		return Result{}, err
	}
	if seed != nil && seed.Objectives() != opts.Objectives {
		return Result{}, fmt.Errorf("core: frontier seed objectives %v do not match request %v", seed.Objectives(), opts.Objectives)
	}
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
		if finalFlat != nil && deadlinePassed(ctx) {
			// The deadline passed between iterations: return the
			// incumbent. Without one the iteration runs anyway — an
			// expired context degrades it at its first poll, so a deadline
			// degrades IRA rather than failing it.
			total.TimedOut = true
			break
		}

		// Each iteration is RTA's FindParetoPlans at α(i); its stopping
		// condition reads the archive's rows, and a Frontier is extracted
		// only for the iteration returned.
		iterStart := time.Now()
		e := newEngine(ctx, m, opts, objective.UniformPrecision(alpha, opts.Objectives), w)
		flat := e.run()
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
	return finalEngine.finish(finalFlat, w, b, total), nil
}

// deadlinePassed reports whether ctx's deadline has passed: by the clock,
// like the engine's poll, or by the error of a context that ends without
// declaring one.
func deadlinePassed(ctx context.Context) bool {
	if d, ok := ctx.Deadline(); ok && time.Now().After(d) {
		return true
	}
	return errors.Is(ctx.Err(), context.DeadlineExceeded)
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

// SelingerContext is Selinger under a context: the weighted-sum program
// (WeightedSumDPContext) with all weight on obj.
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

// WeightedSumDPContext is WeightedSumDP under a context. Cancellation
// aborts it with ctx's error. It has no degraded levels, so a deadline that
// passes while they run changes nothing; one that passes while the search
// space is still being materialized (the connected-subset walk of a clique
// or a wide star) truncates the run to the §5.1 chain fallback, and only
// then is it Stats.TimedOut. Its answer depends on the weights: no snapshot.
func WeightedSumDPContext(ctx context.Context, m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	if opts.Objectives.Len() == 0 {
		opts.Objectives = w.Active()
	}
	opts, start, err := begin(ctx, opts, w, objective.NoBounds())
	if err != nil {
		return Result{}, err
	}
	e := newEngine(ctx, m, opts, exactPrecision, w)
	res, err := e.result(e.runScalar(), w, objective.NoBounds(), start)
	res.Snapshot = nil
	return res, err
}

// ObjectiveMinima returns, for every active objective, the minimal
// achievable cost over the plan space, computed by one Selinger run per
// objective. The paper's test-case generator draws bounds for
// unbounded-domain objectives from [1,2] times these minima.
func ObjectiveMinima(m *costmodel.Model, opts Options) (objective.Vector, error) {
	return ObjectiveMinimaContext(context.Background(), m, opts)
}

// ObjectiveMinimaContext is ObjectiveMinima under a context; cancellation
// aborts between (and within) the Selinger runs, each over opts normalized
// for the full objective set (so the sampling decision is the main run's).
// A minimum has no degraded form, so a run the deadline cut short
// (Stats.TimedOut) is an error wrapping context.DeadlineExceeded.
func ObjectiveMinimaContext(ctx context.Context, m *costmodel.Model, opts Options) (objective.Vector, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return objective.Vector{}, err
	}
	var minima objective.Vector
	for o := range opts.Objectives.All() {
		res, err := SelingerContext(ctx, m, o, opts)
		if err != nil {
			return objective.Vector{}, err
		}
		if res.Stats.TimedOut {
			return objective.Vector{}, fmt.Errorf("core: minimum of %v: the deadline passed during enumeration: %w", o, context.DeadlineExceeded)
		}
		if res.Frontier.Len() == 0 {
			return objective.Vector{}, fmt.Errorf("core: no plan found for objective %v", o)
		}
		minima[o] = res.Frontier.CostAt(res.BestRow)[o]
	}
	return minima, nil
}

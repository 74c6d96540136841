package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// cancelAtSet arranges for cancel to be called as the k-th table set of
// the next run is about to be treated (through the engine's per-set hook).
// With k past the scan level of a query whose remaining sets hold far more
// than one poll interval of candidates, the cancellation lands mid-run by
// construction — where a timer would have to guess how long the dynamic
// program takes on this machine.
func cancelAtSet(t *testing.T, k int32, cancel func()) {
	var treated atomic.Int32
	SetPanicHook(func(int32) {
		if treated.Add(1) == k {
			cancel()
		}
	})
	t.Cleanup(func() { SetPanicHook(nil) })
}

// hookDeadline is a context whose deadline passes when the test says so,
// not when a clock does: Done closes and Err turns DeadlineExceeded on
// expire. It declares no Deadline, so the engine learns of it the way it
// learns of any context's end — at a poll of Done.
type hookDeadline struct {
	context.Context
	done    chan struct{}
	expired atomic.Bool
}

func (c *hookDeadline) Done() <-chan struct{} { return c.done }

func (c *hookDeadline) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *hookDeadline) expire() {
	if c.expired.CompareAndSwap(false, true) {
		close(c.done)
	}
}

// deadlineAtSet is cancelAtSet for a deadline: the returned context's Done
// closes with context.DeadlineExceeded as the k-th table set of the next run
// is about to be treated, so the run is mid-flight when its deadline passes
// however fast the machine or the engine.
func deadlineAtSet(t *testing.T, k int32) context.Context {
	ctx := &hookDeadline{Context: context.Background(), done: make(chan struct{})}
	cancelAtSet(t, k, ctx.expire)
	return ctx
}

// expired returns a context whose deadline has already passed: a run under
// it degrades at its first poll.
func expired(t testing.TB) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now())
	t.Cleanup(cancel)
	return ctx
}

// bigModel builds a query whose dynamic program is still in its second
// level at the twentieth of its 91 table sets, with all but a few thousand
// of its candidates ahead: a cancellation or a deadline placed there
// (cancelAtSet, deadlineAtSet) lands well before it would finish.
func bigModel(t testing.TB) *costmodel.Model {
	t.Helper()
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 13, MaxRows: 1e5, Seed: 3,
	})
	return costmodel.NewDefault(q)
}

// TestCancelPrompt: cancelling mid-run must abort the dynamic program well
// before it would finish, return the context's error, and leave no pool
// goroutine behind (the level barrier drains every worker).
func TestCancelPrompt(t *testing.T) {
	m := bigModel(t)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 4}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAtSet(t, 20, cancel)
	start := time.Now()
	_, err := RTAContext(ctx, m, w, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RTAContext after cancel: err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	// All pool goroutines have drained through the level barrier and
	// returned: the pool's shutdown waits for them.
	if g := goroutinesSettle(before + 1); g > before+1 {
		t.Fatalf("goroutines leaked: %d before, %d after cancel", before, g)
	}
}

// TestCancelScalar: the scalar dynamic program (Selinger/WeightedSum) has
// no degraded mode, so cancellation must abort it with an error rather
// than returning a partially enumerated (possibly non-optimal) plan.
func TestCancelScalar(t *testing.T) {
	// A clique keeps every split predicate-connected, so the scalar DP —
	// much cheaper per set than the Pareto DP — still has thousands of sets
	// left to treat when the cancellation lands.
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Clique, Tables: 13, MaxRows: 1e5, Seed: 3,
	})
	m := costmodel.NewDefault(q)
	opts := Options{Objectives: threeObjs, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelAtSet(t, 20, cancel)
	_, err := SelingerContext(ctx, m, objective.TotalTime, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SelingerContext after cancel: err = %v, want context.Canceled", err)
	}
}

// TestCancelBeforeStart: an already-cancelled context aborts before any
// dynamic programming happens, for every algorithm entry point.
func TestCancelBeforeStart(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 5, MaxRows: 1e4, Seed: 1,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	calls := map[string]func() error{
		"EXA": func() error { _, err := EXAContext(ctx, m, w, objective.NoBounds(), opts); return err },
		"RTA": func() error { _, err := RTAContext(ctx, m, w, opts); return err },
		"IRA": func() error { _, err := IRAContext(ctx, m, w, objective.NoBounds(), opts); return err },
		"RTA per objective": func() error {
			vec := opts
			vec.Precision = objective.UniformPrecision(1.2, threeObjs)
			_, err := RTAContext(ctx, m, w, vec)
			return err
		},
		"Selinger":    func() error { _, err := SelingerContext(ctx, m, objective.TotalTime, opts); return err },
		"WeightedSum": func() error { _, err := WeightedSumDPContext(ctx, m, w, opts); return err },
		"Minima":      func() error { _, err := ObjectiveMinimaContext(ctx, m, opts); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with pre-cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestContextDeadlineDegrades: a context deadline is the paper's timeout —
// the run degrades (Section 5.1) and still returns a plan with
// Stats.TimedOut set, instead of erroring out.
func TestContextDeadlineDegrades(t *testing.T) {
	m := bigModel(t)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 2}

	res, err := RTAContext(deadlineAtSet(t, 20), m, w, opts)
	if err != nil {
		t.Fatalf("RTAContext with deadline: %v (a deadline should degrade, not error)", err)
	}
	if !res.Stats.TimedOut {
		t.Fatalf("Stats.TimedOut = false after context deadline; run took %v", res.Stats.Duration)
	}
	if res.Best == nil {
		t.Fatal("degraded run returned no plan")
	}
}

// TestPreExpiredDeadlineDegrades: a deadline that expired before the call
// even started must still degrade into a plan — for the IRA in
// particular, whose refinement loop used to break before its first
// iteration and return no frontier at all.
func TestPreExpiredDeadlineDegrades(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 6, MaxRows: 1e4, Seed: 1,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	b := objective.NoBounds().With(objective.BufferFootprint, 1e12)
	opts := Options{Objectives: threeObjs, Alpha: 1.5}

	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	res, err := IRAContext(ctx, m, w, b, opts)
	if err != nil {
		t.Fatalf("IRAContext under pre-expired deadline: %v (should degrade, not fail)", err)
	}
	if res.Best == nil || res.Frontier == nil {
		t.Fatalf("degraded IRA returned Best=%v Frontier=%v, want a plan and a frontier", res.Best, res.Frontier)
	}
	if !res.Stats.TimedOut {
		t.Error("Stats.TimedOut not set")
	}

}

// TestCancelCause: a cancellation cause set via WithCancelCause surfaces
// through the engine.
func TestCancelCause(t *testing.T) {
	m := bigModel(t)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 2}

	sentinel := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cancelAtSet(t, 20, func() { cancel(sentinel) })
	_, err := RTAContext(ctx, m, w, opts)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancellation cause %v", err, sentinel)
	}
}

// TestObjectiveMinimaDeadlineFails: a minimum has no degraded form. A
// deadline that has passed when the enumerator first polls — a 13-clique's
// walk reaches its first poll, at 4096 of 8191 connected sets — cuts the
// scalar program to the chain fallback, whose plan is no minimum; the call
// must fail with the deadline instead of returning that plan's cost.
func TestObjectiveMinimaDeadlineFails(t *testing.T) {
	q := buildShape(t, synthetic.Clique, 13, 1)
	two := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	minima, err := ObjectiveMinimaContext(expired(t), costmodel.NewDefault(q), Options{Objectives: two})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ObjectiveMinimaContext under an expired deadline: minima %v, err = %v, want context.DeadlineExceeded",
			minima.FormatOn(two), err)
	}
	// The scalar programs themselves degrade, and say so.
	res, err := SelingerContext(expired(t), costmodel.NewDefault(q), objective.TotalTime, Options{})
	if err != nil || !res.Stats.TimedOut || res.Best == nil {
		t.Fatalf("SelingerContext under an expired deadline: TimedOut %v, err %v, want a degraded plan", res.Stats.TimedOut, err)
	}
}

// TestKeepBestDeadlineAfterEnumeration: a keep-best run has no degraded
// levels, so a deadline that passes while its levels run leaves its answer
// complete — the same plan, cost bits and candidate count as the run
// without one — and it must not report TimedOut.
func TestKeepBestDeadlineAfterEnumeration(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 10, MaxRows: 1e5, Seed: 3})
	two := objective.NewSet(objective.TotalTime, objective.Energy)
	runs := []struct {
		name string
		run  func(ctx context.Context) (Result, error)
	}{
		{"selinger", func(ctx context.Context) (Result, error) {
			return SelingerContext(ctx, costmodel.NewDefault(q), objective.TotalTime, Options{})
		}},
		{"weighted sum", func(ctx context.Context) (Result, error) {
			return WeightedSumDPContext(ctx, costmodel.NewDefault(q), objective.UniformWeights(two), Options{Objectives: two})
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			want, err := r.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.run(deadlineAtSet(t, 30))
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.TimedOut {
				t.Error("a complete keep-best run reports TimedOut")
			}
			if got.Stats.Considered != want.Stats.Considered {
				t.Errorf("considered %d candidates, want %d", got.Stats.Considered, want.Stats.Considered)
			}
			if g, w := got.Best.Signature(q), want.Best.Signature(q); g != w {
				t.Errorf("plan %s, want %s", g, w)
			}
			for o, c := range got.Frontier.CostAt(got.BestRow) {
				if w := want.Frontier.CostAt(want.BestRow)[o]; math.Float64bits(c) != math.Float64bits(w) {
					t.Errorf("cost[%d] = %v, want %v", o, c, w)
				}
			}
		})
	}
}

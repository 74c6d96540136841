package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// overlapTrio returns the models of workload.MixedBatch's overlap trio at
// eight tables — a chain and its prefixes at six and four — and the
// exact, two-objective options batch_fresh runs them under.
func overlapTrio(t testing.TB) ([]*costmodel.Model, Options) {
	t.Helper()
	members, err := workload.MixedBatch(workload.BatchSpec{Tables: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var models []*costmodel.Model
	for _, m := range members {
		if m.Algorithm == "exa" && (m.Kind == "base" || m.Kind == "overlap") {
			models = append(models, costmodel.NewDefault(m.Query))
		}
	}
	if len(models) != 3 || models[0].Query().NumRelations() != 8 {
		t.Fatalf("MixedBatch's overlap trio changed: %d members", len(models))
	}
	return models, Options{Objectives: objective.NewSet(objective.TotalTime, objective.BufferFootprint)}
}

var twoWeights = objective.UniformWeights(objective.NewSet(objective.TotalTime, objective.BufferFootprint))

// sameAnswer fails the test unless got is bit for bit want: every
// frontier cost and the selected plan's tree.
func sameAnswer(t *testing.T, label string, m *costmodel.Model, got, want Result) {
	t.Helper()
	if got.Frontier.Len() != want.Frontier.Len() || frontierBits(got.Frontier) != frontierBits(want.Frontier) {
		t.Fatalf("%s: frontier (%d rows, %#x) differs from the standalone run's (%d rows, %#x)", label,
			got.Frontier.Len(), frontierBits(got.Frontier), want.Frontier.Len(), frontierBits(want.Frontier))
	}
	if g, w := got.Best.Format(m.Query()), want.Best.Format(m.Query()); g != w {
		t.Fatalf("%s: best plan\n%s\nwant\n%s", label, g, w)
	}
}

// inFlightKeys counts the keys sm holds in flight.
func inFlightKeys(sm *SharedMemo) int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	n := 0
	for _, a := range sm.m {
		if a == inFlight {
			n++
		}
	}
	return n
}

// nonSingletons counts m's enumerated table sets of two or more tables:
// the sets a run looks up in a shared memo.
func nonSingletons(t *testing.T, m *costmodel.Model, opts Options) int {
	t.Helper()
	e := newEngine(context.Background(), m, mustNormalize(t, opts), exactPrecision, twoWeights)
	return e.enum.total - len(e.enum.levels[1])
}

// ownTopSet takes the key of m's full table set in sm, as the run that
// owns it would, and returns the key string to release it with.
func ownTopSet(t *testing.T, sm *SharedMemo, m *costmodel.Model, opts Options) string {
	t.Helper()
	e := newEngine(context.Background(), m, mustNormalize(t, opts), exactPrecision, twoWeights)
	e.shared = sm
	e.prepareShared()
	a, owned := sm.acquire(e.workers[0].sharedKey(e.enum.all), nil)
	if a != nil || owned == "" {
		t.Fatal("the full set's key was not free")
	}
	return owned
}

// midSetModel is a nine-table chain whose dynamic program, alone on one
// worker, is inside a table set's candidate loop at its next poll after
// the twentieth set is about to be treated (cancelAtSet, deadlineAtSet).
func midSetModel(t testing.TB) *costmodel.Model {
	t.Helper()
	_, q := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 9, MaxRows: 1e5, Seed: 3})
	return costmodel.NewDefault(q)
}

// awaitWaiter returns once some goroutine is parked in SharedMemo.acquire
// waiting for an owner's release, and fails the test after ten seconds.
func awaitWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*SharedMemo).acquire") {
				return
			}
		}
	}
	t.Fatal("no run waited on the held key")
}

// TestSharedMemoSolvesEachSetOnce: a chain and two of its prefixes run side
// by side on one shared memo solve every table set once between them,
// whoever gets to it first, so the runs' summed Considered and EnumSplits
// are those of the chain followed by the prefixes, one after another: the
// chain's standalone work plus the prefixes' singleton scans, which are
// never shared. Each answer is bit for bit its standalone run's.
func TestSharedMemoSolvesEachSetOnce(t *testing.T) {
	models, opts := overlapTrio(t)
	alone := make([]Result, len(models))
	for i, m := range models {
		var err error
		if alone[i], err = EXA(m, twoWeights, objective.NoBounds(), opts); err != nil {
			t.Fatal(err)
		}
	}
	// The one-after-another sums: every prefix set is the chain's.
	ref := opts
	ref.Shared = NewSharedMemo()
	wantConsidered, wantSplits := 0, 0
	for i, m := range models {
		res, err := EXA(m, twoWeights, objective.NoBounds(), ref)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Stats.SharedMemoHits != nonSingletons(t, m, opts) {
			t.Fatalf("prefix %d hit %d of the chain's sets, want all %d", i, res.Stats.SharedMemoHits, nonSingletons(t, m, opts))
		}
		wantConsidered += res.Stats.Considered
		wantSplits += res.Stats.EnumSplits
	}
	if ref := wantConsidered - alone[0].Stats.Considered; ref <= 0 || ref >= alone[1].Stats.Considered {
		t.Fatalf("prefixes' scans = %d candidates, want a few of the %d of the six-table prefix", ref, alone[1].Stats.Considered)
	}

	forcePool(t)
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		for rep := range 50 {
			opts.Shared = NewSharedMemo()
			got := make([]Result, len(models))
			errs := make([]error, len(models))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, m := range models {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					got[i], errs[i] = EXA(m, twoWeights, objective.NoBounds(), opts)
				}()
			}
			close(start)
			wg.Wait()
			considered, splits := 0, 0
			for i, m := range models {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				sameAnswer(t, fmt.Sprintf("workers=%d rep %d member %d", workers, rep, i), m, got[i], alone[i])
				considered += got[i].Stats.Considered
				splits += got[i].Stats.EnumSplits
			}
			if considered != wantConsidered || splits != wantSplits {
				t.Fatalf("workers=%d rep %d: summed Considered/EnumSplits %d/%d, want %d/%d (each set solved once)",
					workers, rep, considered, splits, wantConsidered, wantSplits)
			}
			if n := inFlightKeys(opts.Shared); n != 0 {
				t.Fatalf("workers=%d rep %d: %d keys left in flight", workers, rep, n)
			}
		}
	}
}

// TestSharedMemoWaiterTakesOverAbandonedKey: a run that waits on a key its
// owner then abandons solves the set itself, publishes it, and answers bit
// for bit as it does alone.
func TestSharedMemoWaiterTakesOverAbandonedKey(t *testing.T) {
	models, opts := overlapTrio(t)
	m := models[1]
	alone, err := EXA(m, twoWeights, objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewSharedMemo()
	owned := ownTopSet(t, sm, m, opts)
	opts.Shared = sm
	done := make(chan struct{})
	var got Result
	go func() {
		defer close(done)
		got, err = EXA(m, twoWeights, objective.NoBounds(), opts)
	}()
	awaitWaiter(t)
	sm.release(owned, nil)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter did not take the abandoned key over")
	}
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "waiter", m, got, alone)
	if want := nonSingletons(t, m, opts); got.Stats.SharedMemoHits != 0 || sm.Len() != want {
		t.Fatalf("waiter hit %d sets and the memo holds %d, want 0 and all %d", got.Stats.SharedMemoHits, sm.Len(), want)
	}
}

// TestSharedMemoOwnerDeadlineAbandons: an owner whose deadline passes
// mid-set abandons its key instead of publishing a truncated archive, and
// a run waiting on it, side by side, solves the set itself and answers bit
// for bit. Each repetition lets the owner treat its first 19 sets alone;
// as it is about to treat the twentieth, its deadline passes and the
// waiter starts. The owner runs ahead by construction, so its next poll
// lands inside that set's candidate loop however many cores there are. (A
// waiter started beside it could, on one core, solve and publish every set
// first, and the owner, served from the memo, would never poll.)
func TestSharedMemoOwnerDeadlineAbandons(t *testing.T) {
	m := midSetModel(t)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 1}
	alone, err := RTA(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rep := range 10 {
		opts.Shared = NewSharedMemo()
		owner := &hookDeadline{Context: context.Background(), done: make(chan struct{})}
		start, ownerDone := make(chan struct{}), make(chan struct{})
		cancelAtSet(t, 20, func() {
			owner.expire()
			close(start)
		})
		var degraded, got Result
		var ownerErr, waiterErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(ownerDone)
			degraded, ownerErr = RTAContext(owner, m, w, opts)
		}()
		go func() {
			defer wg.Done()
			select {
			case <-start:
			case <-ownerDone: // the owner never reached its twentieth set
			}
			got, waiterErr = RTA(m, w, opts)
		}()
		wg.Wait()
		if ownerErr != nil || waiterErr != nil {
			t.Fatalf("rep %d: owner err %v, waiter err %v", rep, ownerErr, waiterErr)
		}
		if !degraded.Stats.TimedOut {
			t.Fatalf("rep %d: the owner's deadline did not degrade it", rep)
		}
		sameAnswer(t, fmt.Sprintf("rep %d waiter", rep), m, got, alone)
		if n := inFlightKeys(opts.Shared); n != 0 {
			t.Fatalf("rep %d: %d keys left in flight", rep, n)
		}
	}

	// Alone, the owner's cut set is abandoned, not published (it took one
	// key more than it published): a later run solves it and the rest, and
	// answers bit for bit.
	opts.Shared = NewSharedMemo()
	if res, err := RTAContext(deadlineAtSet(t, 20), m, w, opts); err != nil || !res.Stats.TimedOut {
		t.Fatalf("owner alone: TimedOut %v, err %v", res.Stats.TimedOut, err)
	}
	if n := inFlightKeys(opts.Shared); n != 0 {
		t.Fatalf("the timed-out owner left %d keys in flight", n)
	}
	_, owned, published64 := opts.Shared.Counters()
	if owned != published64+1 {
		t.Fatalf("the owner took %d keys and published %d, want one abandoned mid-set", owned, published64)
	}
	published := opts.Shared.Len()
	got, err := RTA(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "after the owner", m, got, alone)
	if got.Stats.SharedMemoHits != published {
		t.Fatalf("later run hit %d sets, want the %d the owner published", got.Stats.SharedMemoHits, published)
	}
}

// TestSharedMemoCancelWhileWaiting: a run cancelled while it waits on
// another run's key returns ctx.Err() at once and leaves no goroutine
// behind, though the key is still held.
func TestSharedMemoCancelWhileWaiting(t *testing.T) {
	models, opts := overlapTrio(t)
	m := models[0]
	sm := NewSharedMemo()
	owned := ownTopSet(t, sm, m, opts)
	defer sm.release(owned, nil)
	opts.Shared = sm
	forcePool(t)
	opts.Workers = 2

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := EXAContext(ctx, m, twoWeights, objective.NoBounds(), opts)
		done <- err
	}()
	awaitWaiter(t)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cancelled run still waits on the held key")
	}
	if g := goroutinesSettle(before); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// panicErrContext is a context whose Done closes at the k-th treated set
// and whose Err then panics the first time it is read: at the run's next
// poll, which lands inside a set's candidate loop.
type panicErrContext struct {
	context.Context
	done     chan struct{}
	panicked atomic.Bool
}

func (c *panicErrContext) Done() <-chan struct{} { return c.done }

func (c *panicErrContext) Err() error {
	select {
	case <-c.done:
	default:
		return nil
	}
	if c.panicked.CompareAndSwap(false, true) {
		panic("chaos: poll crash")
	}
	return context.Canceled
}

// TestSharedMemoPanicReleasesKey: a worker that panics while it owns a key
// releases it (containPanic), so a run looking the set up afterwards
// solves it instead of waiting forever, and answers bit for bit.
func TestSharedMemoPanicReleasesKey(t *testing.T) {
	m := midSetModel(t)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 1}
	alone, err := RTA(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shared = NewSharedMemo()
	ctx := &panicErrContext{Context: context.Background(), done: make(chan struct{})}
	cancelAtSet(t, 20, func() { close(ctx.done) })
	_, err = RTAContext(ctx, m, w, opts)
	if !errors.Is(err, ErrEnginePanic) || !strings.Contains(err.Error(), "(*worker).fullSet") {
		t.Fatalf("err = %v, want ErrEnginePanic raised inside fullSet", err)
	}
	SetPanicHook(nil)
	if n := inFlightKeys(opts.Shared); n != 0 {
		t.Fatalf("the panicked run left %d keys in flight", n)
	}
	done := make(chan struct{})
	var got Result
	go func() {
		defer close(done)
		got, err = RTA(m, w, opts)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a run hangs on the key the panicked run owned")
	}
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "after the panic", m, got, alone)
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// serveArmed resolves an /optimize body, answers it through the tiers under
// a fresh budget and reports whether the budget was armed on the way.
func serveArmed(t *testing.T, s *Server, body string) bool {
	t.Helper()
	var wire OptimizeRequest
	if err := json.Unmarshal([]byte(body), &wire); err != nil {
		t.Fatal(err)
	}
	var m member
	if f := s.resolve(&m, &wire, "", nil, nil); f != nil {
		t.Fatal(f.err)
	}
	b := &budget{parent: context.Background(), deadline: time.Now().Add(time.Minute)}
	defer b.release()
	if _, err := s.tiers.Serve(b, &m.req, m.ten, m.noCache); err != nil {
		t.Fatal(err)
	}
	return b.ctx != nil
}

// TestFrontierHitArmsNoDeadline: the request that runs the dynamic program
// arms its budget (its slot wait and its run ask for the deadline), and
// every request the frontier tier answers afterwards — an exact repeat, a
// re-weight — arms none.
func TestFrontierHitArmsNoDeadline(t *testing.T) {
	s := New(Options{})
	if !serveArmed(t, s, reweightRequest(1)) {
		t.Fatal("the cold request ran its dynamic program without arming its budget")
	}
	for _, body := range []string{reweightRequest(1), reweightRequest(2.5)} {
		if serveArmed(t, s, body) {
			t.Fatalf("a frontier hit armed its budget: %s", body)
		}
	}
	if served := s.tiers.reweightServed.Load(); served != 2 {
		t.Fatalf("%d requests served from the frontier, want 2", served)
	}
}

// TestBudgetIsWithDeadline: a budget answers as the context.WithDeadline it
// arms — the deadline, expiry with DeadlineExceeded, the parent's
// cancellation — and release ends it as that context's cancel does, armed
// or not. A context derived from a budget is linked to the armed context
// directly: releasing the budget cancels it before release returns, with
// no goroutine in between.
func TestBudgetIsWithDeadline(t *testing.T) {
	deadline := time.Now().Add(time.Hour)
	b := &budget{parent: context.Background(), deadline: deadline}
	if d, ok := b.Deadline(); !ok || !d.Equal(deadline) {
		t.Fatalf("Deadline() = %v, %v; want %v, true", d, ok, deadline)
	}
	child, cancelChild := context.WithCancel(b)
	defer cancelChild()
	if b.Err() != nil || child.Err() != nil {
		t.Fatal("a budget an hour away is already done")
	}
	b.release()
	select {
	case <-child.Done():
	default:
		t.Fatal("releasing the budget did not cancel its child synchronously")
	}
	if !errors.Is(b.Err(), context.Canceled) {
		t.Fatalf("released budget: Err() = %v, want Canceled", b.Err())
	}

	expired := &budget{parent: context.Background(), deadline: time.Now().Add(-time.Millisecond)}
	defer expired.release()
	<-expired.Done()
	if !errors.Is(expired.Err(), context.DeadlineExceeded) {
		t.Fatalf("expired budget: Err() = %v, want DeadlineExceeded", expired.Err())
	}

	parent, cancelParent := context.WithCancel(context.Background())
	gone := &budget{parent: parent, deadline: time.Now().Add(time.Hour)}
	defer gone.release()
	cancelParent()
	if !errors.Is(gone.Err(), context.Canceled) {
		t.Fatalf("budget of a canceled parent: Err() = %v, want Canceled", gone.Err())
	}

	unarmed := &budget{parent: context.Background(), deadline: time.Now().Add(time.Hour)}
	unarmed.release()
	if unarmed.Err() == nil {
		t.Fatal("a budget released unarmed can still be armed")
	}
}

// TestBudgetArmsOnce: goroutines asking an unarmed budget at once — as a
// dynamic program's workers may — all get the one armed context.
func TestBudgetArmsOnce(t *testing.T) {
	b := &budget{parent: context.Background(), deadline: time.Now().Add(time.Hour)}
	defer b.release()
	const askers = 8
	done := make(chan (<-chan struct{}), askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = b.Err()
			done <- b.Done()
		}()
	}
	wg.Wait()
	close(done)
	want := b.Done()
	for ch := range done {
		if ch != want {
			t.Fatal("two goroutines armed two contexts")
		}
	}
}

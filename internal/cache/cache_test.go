package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEvictionOrder: a full shard evicts strictly least-recently-used,
// where both Get and Put refresh recency.
func TestEvictionOrder(t *testing.T) {
	c := New[int](2, 1) // one shard, two entries
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a: b is now LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b

	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (was least recently used)")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

// TestPutRefresh: re-putting an existing key must not evict anything and
// must refresh both value and recency.
// TestOnEvict: the eviction hook fires for LRU evictions and for Put
// replacements — exactly once per value leaving the cache, with the
// reason telling the two apart — so a gauge-style accounting (the moqod
// snapshot-bytes gauge) balances and the colder tier only hears of true
// evictions.
func TestOnEvict(t *testing.T) {
	c := New[int](2, 1)
	var gone []string
	c.OnEvict(func(key string, v int, reason EvictReason) {
		gone = append(gone, fmt.Sprintf("%s=%d/%d", key, v, reason))
	})

	c.Put("a", 1)
	c.Put("b", 2)
	if len(gone) != 0 {
		t.Fatalf("hook fired with the cache under capacity: %v", gone)
	}
	c.Put("a", 10) // replacement: old value leaves
	c.Put("c", 3)  // eviction: b is LRU
	want := []string{fmt.Sprintf("a=1/%d", Replaced), fmt.Sprintf("b=2/%d", Evicted)}
	if len(gone) != len(want) || gone[0] != want[0] || gone[1] != want[1] {
		t.Fatalf("hook calls %v, want %v", gone, want)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

// TestOnEvictUnlocked: callbacks run after Put has released the shard
// lock, so they may call back into the same cache (with the lock held,
// Get and Len on the one shard would deadlock), and a gauge kept by
// add-on-Put / subtract-in-callback still balances when many goroutines
// displace each other's values. Run with -race.
func TestOnEvictUnlocked(t *testing.T) {
	c := New[int](4, 1) // one shard: every key contends for the same lock
	var gauge atomic.Int64
	c.OnEvict(func(key string, v int, _ EvictReason) {
		gauge.Add(-int64(v))
		c.Get(key)
		c.Len()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				gauge.Add(int64(i))
				c.Put(fmt.Sprintf("k%d", (g+i)%16), i)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Put deadlocked against its own OnEvict callback")
	}
	var held int64
	for k := 0; k < 16; k++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", k)); ok {
			held += int64(v)
		}
	}
	if got := gauge.Load(); got != held {
		t.Fatalf("gauge %d, cache holds %d", got, held)
	}
}

func TestPutRefresh(t *testing.T) {
	c := New[int](2, 1)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh, not insert
	c.Put("c", 3)  // evicts b, not a

	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("a = %d,%t; want 10", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

// TestCapacityBound: the cache never holds more than its capacity.
func TestCapacityBound(t *testing.T) {
	c := New[int](64, 8)
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("cache holds %d entries, capacity 64", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

// TestSingleFlight: N concurrent Do calls for one key run compute exactly
// once; everyone gets the same value. Run with -race.
func TestSingleFlight(t *testing.T) {
	c := New[int](16, 4)
	var computes atomic.Int32
	release := make(chan struct{})

	const n = 32
	var wg sync.WaitGroup
	sources := make([]Source, n)
	values := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, src, err := c.Do(context.Background(), "key", func(context.Context) (int, bool, error) {
				computes.Add(1)
				<-release // hold every other caller in the coalesced wait
				return 42, true, nil
			})
			if err != nil {
				t.Error(err)
			}
			sources[i], values[i] = src, v
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let all callers reach Do
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	misses := 0
	for i := range sources {
		if values[i] != 42 {
			t.Fatalf("caller %d got %d", i, values[i])
		}
		if sources[i] == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers report Miss, want exactly 1", misses)
	}
	if _, src, _ := c.Do(context.Background(), "key", func(context.Context) (int, bool, error) {
		t.Error("compute ran after the value was cached")
		return 0, false, nil
	}); src != Hit {
		t.Fatalf("post-flight Do source = %v, want Hit", src)
	}
}

// TestWaiterRetriesOnPrivateResult: a store=false result (e.g. a
// timeout-degraded optimization under the leader's shorter deadline) goes
// only to the leader; a coalesced waiter retries and computes under its
// own constraints instead of inheriting the degraded value.
func TestWaiterRetriesOnPrivateResult(t *testing.T) {
	c := New[string](16, 4)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan string, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "k", func(context.Context) (string, bool, error) {
			close(leaderIn)
			<-release
			return "degraded", false, nil
		})
		leaderDone <- v
	}()
	<-leaderIn

	waiterDone := make(chan string, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func(context.Context) (string, bool, error) {
			return "full", true, nil
		})
		if err != nil {
			t.Error(err)
		}
		waiterDone <- v
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter coalesce
	close(release)

	if v := <-leaderDone; v != "degraded" {
		t.Fatalf("leader got %q, want its own degraded result", v)
	}
	if v := <-waiterDone; v != "full" {
		t.Fatalf("waiter got %q, want to have recomputed (full)", v)
	}
	if v, ok := c.Get("k"); !ok || v != "full" {
		t.Fatalf("cache holds %q,%t; want the waiter's full result", v, ok)
	}
}

// TestWaiterRetriesOnLeaderCancel: the leader disconnecting (its compute
// returning its ctx error) must not surface as an error to a healthy
// coalesced waiter — the waiter retries.
func TestWaiterRetriesOnLeaderCancel(t *testing.T) {
	c := New[string](16, 4)
	leaderIn := make(chan struct{})
	leaderCtx, disconnect := context.WithCancel(context.Background())
	go func() {
		_, _, _ = c.Do(leaderCtx, "k", func(ctx context.Context) (string, bool, error) {
			close(leaderIn)
			<-ctx.Done()
			return "", false, ctx.Err()
		})
	}()
	<-leaderIn

	waiterDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", func(context.Context) (string, bool, error) {
			return "fresh", true, nil
		})
		if err == nil && v != "fresh" {
			t.Errorf("waiter got %q", v)
		}
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter coalesce
	disconnect()

	if err := <-waiterDone; err != nil {
		t.Fatalf("healthy waiter inherited the leader's cancellation: %v", err)
	}
}

// TestDoNoStore: compute can decline caching (store=false) — the value is
// returned but the next Do recomputes.
func TestDoNoStore(t *testing.T) {
	c := New[int](16, 4)
	var computes atomic.Int32
	compute := func(context.Context) (int, bool, error) {
		return int(computes.Add(1)), false, nil
	}
	for want := 1; want <= 3; want++ {
		v, src, err := c.Do(context.Background(), "k", compute)
		if err != nil || v != want || src != Miss {
			t.Fatalf("round %d: v=%d src=%v err=%v", want, v, src, err)
		}
	}
}

// TestDoErrorNotCached: errors propagate and are never cached.
func TestDoErrorNotCached(t *testing.T) {
	c := New[int](16, 4)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 0, true, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, src, err := c.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 7, true, nil
	})
	if err != nil || v != 7 || src != Miss {
		t.Fatalf("after error: v=%d src=%v err=%v, want fresh compute", v, src, err)
	}
}

// TestWaiterContext: a coalesced waiter whose context ends stops waiting
// with the context error while the leader's computation proceeds.
func TestWaiterContext(t *testing.T) {
	c := New[int](16, 4)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
			close(started)
			<-release
			return 1, true, nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func(context.Context) (int, bool, error) {
		t.Error("waiter must not compute")
		return 0, false, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	close(release)
}

// TestConcurrentMixed: hammer the cache from many goroutines over a small
// key space; the race detector checks the locking, this test the bound.
func TestConcurrentMixed(t *testing.T) {
	c := New[string](32, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				switch i % 3 {
				case 0:
					c.Put(k, k)
				case 1:
					c.Get(k)
				default:
					_, _, _ = c.Do(context.Background(), k, func(context.Context) (string, bool, error) {
						return k, true, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("capacity exceeded: %d > 32", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Fatal("no lookups counted")
	}
}

// TestHitRatio: the snapshot arithmetic.
func TestHitRatio(t *testing.T) {
	c := New[int](8, 1)
	c.Put("a", 1)
	c.Get("a")
	c.Get("a")
	c.Get("miss")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit ratio = %v, want 2/3", r)
	}
}

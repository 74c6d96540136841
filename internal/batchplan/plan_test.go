package batchplan

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueryTurnOrder: holders of a lane's tickets are served one at a
// time in ticket order, whatever order they arrive in (the appends below
// are unsynchronized but for the turn: -race checks the exclusion).
func TestQueryTurnOrder(t *testing.T) {
	qt := newTurn()
	const n = 64
	var order []int
	var wg sync.WaitGroup
	for k := n - 1; k >= 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qt.wait(k)
			order = append(order, k)
			qt.done()
		}()
	}
	wg.Wait()
	for k, got := range order {
		if got != k {
			t.Fatalf("served %v, want tickets in order", order)
		}
	}
	if len(order) != n {
		t.Fatalf("served %d of %d", len(order), n)
	}
}

// TestRunServesEveryUnitOnce: every index is served exactly once for any
// parallel, including more claimers than units and none at all.
func TestRunServesEveryUnitOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, parallel := range []int{-1, 0, 1, 3, 256} {
			served := make([]atomic.Int32, n)
			s := New(n, func(i int) float64 { return float64(i % 5) }, func(i int) int { return i % 3 })
			s.Run(parallel, func(i int) { served[i].Add(1) })
			for i := range served {
				if got := served[i].Load(); got != 1 {
					t.Fatalf("n=%d parallel=%d: unit %d served %d times", n, parallel, i, got)
				}
			}
		}
	}
}

// TestRunCallerParticipates: with parallel 1 the caller's goroutine is the
// only claimer — Run spawns nothing — and the units arrive in schedule
// order, most expensive first with ties in submission order.
func TestRunCallerParticipates(t *testing.T) {
	costs := []float64{1, 9, 3, 9, 0}
	s := New(len(costs), func(i int) float64 { return costs[i] }, func(i int) int { return i })
	before := runtime.NumGoroutine()
	var order []int
	s.Run(1, func(i int) {
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("parallel 1 spawned %d goroutines", now-before)
		}
		order = append(order, i)
	})
	if want := []int{1, 3, 2, 0, 4}; !reflect.DeepEqual(order, want) {
		t.Fatalf("parallel 1 served %v, want the schedule %v", order, want)
	}
	if s.Lanes() != len(costs) {
		t.Errorf("Lanes() = %d, want %d", s.Lanes(), len(costs))
	}
}

// TestLaneOrderIsScheduleOrder: under any number of claimers the units of
// one lane are served one at a time, most expensive first, equal costs in
// submission order (the per-lane appends are unsynchronized but for the
// lane's turn: -race checks the exclusion).
func TestLaneOrderIsScheduleOrder(t *testing.T) {
	const n, lanes = 240, 4
	cost := func(i int) float64 { return float64((i * 7) % 6) } // many ties
	s := New(n, cost, func(i int) int { return i % lanes })
	if s.Lanes() != lanes {
		t.Fatalf("Lanes() = %d, want %d", s.Lanes(), lanes)
	}
	var got [lanes][]int
	s.Run(8, func(i int) { got[i%lanes] = append(got[i%lanes], i) })
	for l := range got {
		if len(got[l]) != n/lanes {
			t.Fatalf("lane %d served %d units, want %d", l, len(got[l]), n/lanes)
		}
		for k := 1; k < len(got[l]); k++ {
			a, b := got[l][k-1], got[l][k]
			if cost(a) < cost(b) || (cost(a) == cost(b) && a > b) {
				t.Fatalf("lane %d served unit %d (cost %v) before unit %d (cost %v)", l, a, cost(a), b, cost(b))
			}
		}
	}
}

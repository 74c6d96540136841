package batchplan

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

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

// TestLanesServedWhole: with parallel 1 each lane is served whole, its
// units contiguous and most expensive first, the lanes in the order of
// their most expensive unit, equal costs in submission order.
func TestLanesServedWhole(t *testing.T) {
	costs := []float64{4, 9, 9, 2, 7, 8, 3, 1, 4}
	lanes := []int{0, 0, 1, 1, 2, 0, 2, 3, 0}
	s := New(len(costs), func(i int) float64 { return costs[i] }, func(i int) int { return lanes[i] })
	var order []int
	s.Run(1, func(i int) { order = append(order, i) })
	// Lanes by cost: 0 {1, 5, 0, 8}, 1 {2, 3}, 2 {4, 6}, 3 {7}; lanes 0 and
	// 1 tie on their leaders' 9 and keep submission order. Claiming every
	// leader first would serve 1, 2, 4, 7 before lane 0's follower 5.
	if want := []int{1, 5, 0, 8, 2, 3, 4, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("parallel 1 served %v, want %v", order, want)
	}
}

// TestRunOverlapsLaneLeaders: two lanes, A (a leader and its follower)
// and B (a leader), on two claimers. A's leader can only finish once B's
// leader has started, so B's leader must be claimed before A's follower:
// a claimer parked on A's follower would leave B's leader unclaimed.
func TestRunOverlapsLaneLeaders(t *testing.T) {
	const aLeader, bLeader = 0, 2 // unit 1 is A's follower
	costs := []float64{9, 8, 1}
	lanes := []string{"A", "A", "B"}
	s := New(len(costs), func(i int) float64 { return costs[i] }, func(i int) string { return lanes[i] })
	bStarted := make(chan struct{})
	s.Run(2, func(i int) {
		switch i {
		case aLeader:
			select {
			case <-bStarted:
			case <-time.After(10 * time.Second):
				t.Error("lane A's leader ran alone: lane B's leader was not claimed while it ran")
			}
		case bLeader:
			close(bStarted)
		}
	})
}

// TestRunSkipsBusyLane: lanes A (leader A0, follower A1) and B (leader
// B0, follower B1) on two claimers. A0 can only finish once B1 has
// started, so the claimer that holds lane B must serve B1 while A0 runs:
// a claimer parked on A1, whose lane is busy, would leave B1 unclaimed
// until A0 gave up.
func TestRunSkipsBusyLane(t *testing.T) {
	const a0, a1, b0, b1 = 0, 1, 2, 3
	costs := []float64{9, 2, 8, 1}
	lanes := []string{"A", "A", "B", "B"}
	s := New(len(costs), func(i int) float64 { return costs[i] }, func(i int) string { return lanes[i] })
	var order []int
	s.Run(1, func(i int) { order = append(order, i) })
	if want := []int{a0, a1, b0, b1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("parallel 1 served %v, want the lanes whole %v", order, want)
	}

	b1Started := make(chan struct{})
	s = New(len(costs), func(i int) float64 { return costs[i] }, func(i int) string { return lanes[i] })
	s.Run(2, func(i int) {
		switch i {
		case a0:
			select {
			case <-b1Started:
			case <-time.After(10 * time.Second):
				t.Error("B1 was not claimed while A0 ran: a claimer parked on A1, whose lane was busy")
			}
		case b1:
			close(b1Started)
		}
	})
}

// TestRunSpawnsOnePerLane: with parallel above Lanes(), Run spawns at
// most Lanes()-1 goroutines — one claimer per lane, the caller's goroutine
// included. Every leader waits until all of them are in service, so the
// lanes do run side by side, each lane's claimer alive at once.
func TestRunSpawnsOnePerLane(t *testing.T) {
	const lanes = 3
	s := New(2*lanes, func(i int) float64 { return float64(i) }, func(i int) int { return i % lanes })
	if s.Lanes() != lanes {
		t.Fatalf("Lanes() = %d, want %d", s.Lanes(), lanes)
	}
	before := runtime.NumGoroutine()
	var (
		mu      sync.Mutex
		most    int
		leaders atomic.Int32
		all     = make(chan struct{})
	)
	s.Run(16, func(i int) {
		mu.Lock()
		most = max(most, runtime.NumGoroutine()-before)
		mu.Unlock()
		if i < lanes { // a follower: its leader was served
			return
		}
		if leaders.Add(1) == lanes {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Error("the lanes' leaders were not in service at once")
		}
	})
	if most > lanes-1 {
		t.Fatalf("parallel 16 over %d lanes ran %d goroutines besides the caller, want at most %d", lanes, most, lanes-1)
	}
}

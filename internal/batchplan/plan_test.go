package batchplan

import (
	"reflect"
	"runtime"
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

// TestLeadersBeforeFollowers: the claim order is ticket-major — every
// lane's ticket k before any lane's ticket k+1 — and within one round
// most expensive first, equal costs in submission order.
func TestLeadersBeforeFollowers(t *testing.T) {
	costs := []float64{4, 9, 9, 2, 7, 8, 3, 1}
	lanes := []int{0, 0, 1, 1, 2, 0, 2, 3}
	s := New(len(costs), func(i int) float64 { return costs[i] }, func(i int) int { return lanes[i] })
	var order []int
	s.Run(1, func(i int) { order = append(order, i) })
	// Tickets by lane in cost order: lane 0 {1, 5, 0}, lane 1 {2, 3},
	// lane 2 {4, 6}, lane 3 {7}. Cost order alone would claim lane 0's
	// follower 5 before the leaders 4 and 7.
	if want := []int{1, 2, 4, 7, 5, 6, 3, 0}; !reflect.DeepEqual(order, want) {
		t.Fatalf("parallel 1 served %v, want %v", order, want)
	}
	ticket := make([]int, len(costs))
	issued := map[int]int{}
	for _, i := range order {
		ticket[i] = issued[lanes[i]]
		issued[lanes[i]]++
	}
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if ticket[a] > ticket[b] {
			t.Fatalf("unit %d (ticket %d) claimed before unit %d (ticket %d)", a, ticket[a], b, ticket[b])
		}
		if ticket[a] == ticket[b] && (costs[a] < costs[b] || (costs[a] == costs[b] && a > b)) {
			t.Fatalf("round %d: unit %d (cost %v) before unit %d (cost %v)", ticket[a], a, costs[a], b, costs[b])
		}
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
// B0, follower B1), scheduled A0, B0, A1, B1 on two claimers. A0 can only
// finish once B1 has started, so the claimer that served B0 must pass
// over A1, whose lane is busy, and take B1: parked on A1, it would leave
// B1 unclaimed until A0 gave up.
func TestRunSkipsBusyLane(t *testing.T) {
	const a0, a1, b0, b1 = 0, 1, 2, 3
	costs := []float64{9, 2, 8, 1}
	lanes := []string{"A", "A", "B", "B"}
	s := New(len(costs), func(i int) float64 { return costs[i] }, func(i int) string { return lanes[i] })
	var order []int
	s.Run(1, func(i int) { order = append(order, i) })
	if want := []int{a0, b0, a1, b1}; !reflect.DeepEqual(order, want) {
		t.Fatalf("parallel 1 served %v, want the schedule %v", order, want)
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

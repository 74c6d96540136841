package batchplan

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Schedule is the order n units are served in, lane by lane. Build one
// with New, run it once.
type Schedule struct {
	units []int // every lane's units, contiguous and most expensive first
	start []int // lane l is units[start[l]:start[l+1]]
}

// New sorts units 0..n-1 most expensive first (stable) and lays each
// lane's units out contiguously in that order, the lanes in the order of
// their most expensive unit: the first unit of each lane is its leader,
// and equal costs keep their submission order.
func New[L comparable](n int, cost func(i int) float64, lane func(i int) L) Schedule {
	units := make([]int, n)
	for i := range units {
		units[i] = i
	}
	slices.SortStableFunc(units, func(a, b int) int {
		switch ca, cb := cost(a), cost(b); {
		case ca > cb:
			return -1
		case ca < cb:
			return 1
		}
		return 0
	})
	rank := make([]int, n) // by unit: its lane's place in the schedule
	ranks := make(map[L]int)
	for _, i := range units {
		l := lane(i)
		if _, ok := ranks[l]; !ok {
			ranks[l] = len(ranks)
		}
		rank[i] = ranks[l]
	}
	slices.SortStableFunc(units, func(a, b int) int { return rank[a] - rank[b] })

	s := Schedule{units: units, start: make([]int, 0, len(ranks)+1)}
	for k, i := range units {
		if k == 0 || rank[i] != rank[units[k-1]] {
			s.start = append(s.start, k)
		}
	}
	s.start = append(s.start, n)
	return s
}

// Lanes is the number of distinct lanes — the most units that can be in
// service at once, whatever parallel is.
func (s Schedule) Lanes() int { return len(s.start) - 1 }

// Run serves every unit exactly once: parallel claimers (at least one, at
// most one per lane; the caller's goroutine is the first) each take the
// next lane in schedule order and serve its units one after another, then
// take the next lane, until none is left. A claim is one atomic add, so no
// claimer waits for another, and a lane's units are served in its order
// on one goroutine, so who leads a lane does not depend on timing. Run
// returns when every unit has been served.
func (s Schedule) Run(parallel int, serve func(i int)) {
	var next atomic.Int64
	claim := func() {
		for l := int(next.Add(1)) - 1; l < s.Lanes(); l = int(next.Add(1)) - 1 {
			for _, i := range s.units[s.start[l]:s.start[l+1]] {
				serve(i)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(parallel, s.Lanes()) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

package batchplan

import (
	"slices"
	"sort"
	"sync"
)

// slot is one unit's place in the schedule.
type slot struct {
	unit int
	next int // the schedule position of its lane's next ticket, -1 if none
}

// Schedule is the order n units are served in and the lane each unit
// follows. Build one with New, run it once.
type Schedule struct {
	slots []slot
	lanes int
}

// New hands each of units 0..n-1 its lane's next ticket in cost order
// (most expensive first, stable), then schedules them ticket-major: every
// lane's ticket 0 before any lane's ticket 1, and so on, each round most
// expensive first. The first Lanes() positions are therefore the lanes'
// leaders, and every later unit follows an earlier position of its lane.
func New[L comparable](n int, cost func(i int) float64, lane func(i int) L) Schedule {
	units := make([]int, n)
	for i := range units {
		units[i] = i
	}
	sort.SliceStable(units, func(a, b int) bool { return cost(units[a]) > cost(units[b]) })
	ticket := make([]int, n) // by unit
	issued := make(map[L]int)
	for _, i := range units {
		l := lane(i)
		ticket[i] = issued[l]
		issued[l]++
	}
	sort.SliceStable(units, func(a, b int) bool { return ticket[units[a]] < ticket[units[b]] })

	s := Schedule{slots: make([]slot, n), lanes: len(issued)}
	last := make(map[L]int, len(issued)) // each lane's latest position so far
	for k, i := range units {
		s.slots[k] = slot{unit: i, next: -1}
		l := lane(i)
		if p, ok := last[l]; ok {
			s.slots[p].next = k
		}
		last[l] = k
	}
	return s
}

// Lanes is the number of distinct lanes — the most units that can be in
// service at once, whatever parallel is.
func (s Schedule) Lanes() int { return s.lanes }

// Run serves every unit exactly once: parallel claimers (at least one, at
// most one per unit; the caller's goroutine is the first) each claim the
// first unclaimed unit in schedule order that can start — its lane has
// served every earlier ticket and has nothing in service — and call serve.
// A claimer never parks on a busy lane while another lane's unit could
// start, and lanes still serve in ticket order, so who leads a lane does
// not depend on timing. Run returns when every unit has been served.
func (s Schedule) Run(parallel int, serve func(i int)) {
	var (
		mu sync.Mutex
		// ready holds, ascending, the positions that can start: the
		// leaders at first, then each served unit's successor in its lane.
		// The claimer that served a unit puts its successor in and takes
		// the head in one critical section, so ready never grows: a
		// claimer that finds it empty will find it empty again, and stops.
		ready = make([]int, s.lanes)
	)
	for k := range ready {
		ready[k] = k
	}
	claim := func() {
		mu.Lock()
		for len(ready) > 0 {
			k := ready[0]
			ready = slices.Delete(ready, 0, 1)
			mu.Unlock()
			serve(s.slots[k].unit)
			mu.Lock()
			if next := s.slots[k].next; next >= 0 {
				at, _ := slices.BinarySearch(ready, next)
				ready = slices.Insert(ready, at, next)
			}
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 1; g < min(parallel, len(s.slots)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

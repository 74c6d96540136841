package batchplan

import (
	"sort"
	"sync"
	"sync/atomic"
)

// turn serializes one lane's units in ticket order. Units are claimed in
// schedule order, so whoever holds ticket k-1 was claimed before the holder
// of k and is being served: a waiter only ever waits on work in progress.
type turn struct {
	mu      sync.Mutex
	cond    sync.Cond
	issued  int // tickets handed out while scheduling
	serving int // the ticket whose turn it is
}

func newTurn() *turn {
	t := &turn{}
	t.cond.L = &t.mu
	return t
}

func (t *turn) wait(ticket int) {
	t.mu.Lock()
	for t.serving != ticket {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turn) done() {
	t.mu.Lock()
	t.serving++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// slot is one unit's place in the schedule.
type slot struct {
	unit   int
	turn   *turn
	ticket int
}

// Schedule is the order n units are served in and each unit's ticket in
// its lane. Build one with New, run it once.
type Schedule struct {
	slots []slot
	lanes int
}

// New schedules units 0..n-1 most-expensive-first (stable) and hands each
// its lane's next ticket in that order.
func New[L comparable](n int, cost func(i int) float64, lane func(i int) L) Schedule {
	s := Schedule{slots: make([]slot, n)}
	for i := range s.slots {
		s.slots[i].unit = i
	}
	sort.SliceStable(s.slots, func(a, b int) bool { return cost(s.slots[a].unit) > cost(s.slots[b].unit) })
	turns := make(map[L]*turn)
	for k := range s.slots {
		sl := &s.slots[k]
		l := lane(sl.unit)
		t := turns[l]
		if t == nil {
			t = newTurn()
			turns[l] = t
		}
		sl.turn, sl.ticket = t, t.issued
		t.issued++
	}
	s.lanes = len(turns)
	return s
}

// Lanes is the number of distinct lanes — the most units that can be in
// service at once, whatever parallel is.
func (s Schedule) Lanes() int { return s.lanes }

// Run serves every unit exactly once: parallel claimers (at least one, at
// most one per unit; the caller's goroutine is the first) each claim the
// next unit in schedule order, wait for its turn in its lane, and call
// serve. It returns when every unit has been served.
func (s Schedule) Run(parallel int, serve func(i int)) {
	var next atomic.Int64
	claim := func() {
		for {
			k := int(next.Add(1) - 1)
			if k >= len(s.slots) {
				return
			}
			sl := &s.slots[k]
			sl.turn.wait(sl.ticket)
			serve(sl.unit)
			sl.turn.done()
		}
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

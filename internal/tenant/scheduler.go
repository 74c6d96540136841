package tenant

import (
	"context"
	"errors"
	"sync"
)

// ErrQueueFull rejects an Acquire when the scheduler's total queue
// depth is at its load-shedding bound. The caller should shed the
// request (HTTP 503 + Retry-After) rather than let an unbounded queue
// grow a latency cliff — the bound complements the per-tenant token
// buckets, which cap rate but not simultaneous backlog.
var ErrQueueFull = errors.New("tenant: scheduler queue full")

// Policy is a one-valued vestige: the scheduler has exactly one ordering
// (Fair). The type and NewScheduler's parameter remain only because
// benchmark/probes.go compiles against them and a product PR may not touch
// benchmark/; a benchmark-only PR removes both (ROADMAP item 9(d)).
type Policy int

// Fair: per-tenant arrival-order queues drained by smooth weighted
// round-robin — the only policy.
const Fair Policy = 0

// waiter is one queued acquisition.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// schedQueue is one tenant's admission queue plus its smooth-WRR credit.
type schedQueue struct {
	name    string
	weight  int
	maxConc int // per-tenant running cap (0 = none)
	current int // smooth-WRR credit
	running int
	waiters []*waiter
}

// Scheduler gates cold dynamic programs behind per-tenant admission
// queues: at most slots acquisitions run at once, free slots go to
// non-empty queues by smooth weighted round-robin, and a tenant at its
// MaxConcurrent cap is skipped until it releases. It is safe for
// concurrent use.
type Scheduler struct {
	mu       sync.Mutex
	slots    int
	running  int
	queues   map[string]*schedQueue
	queued   int
	maxQueue int // total queued-waiter bound (0 = unbounded)
	shed     uint64
	granted  map[string]uint64
}

// NewScheduler builds a scheduler with the given concurrency (slots < 1
// is raised to 1). The Policy argument is ignored (see Policy).
func NewScheduler(slots int, _ Policy) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	return &Scheduler{
		slots:   slots,
		queues:  make(map[string]*schedQueue),
		granted: make(map[string]uint64),
	}
}

// Acquire blocks until the scheduler grants the tenant a slot, or ctx
// ends (the slot is then not held). weight and maxConc come from the
// tenant's quota. Every successful Acquire must be paired with a Release
// for the same tenant.
func (s *Scheduler) Acquire(ctx context.Context, tenant string, weight, maxConc int) error {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	if s.maxQueue > 0 && s.queued >= s.maxQueue {
		s.shed++
		s.mu.Unlock()
		return ErrQueueFull
	}
	q := s.queueFor(tenant)
	// Quotas hot-reload: the latest acquisition's view wins.
	q.weight, q.maxConc = weight, maxConc
	w := &waiter{ready: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	s.queued++
	s.dispatch()
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// The grant raced the cancellation: the slot is held, so give it
		// back here rather than making the caller guess.
		s.releaseLocked(q)
		return ctx.Err()
	}
	for i, queued := range q.waiters {
		if queued == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			s.queued--
			break
		}
	}
	return ctx.Err()
}

// Release returns the tenant's slot and dispatches queued work.
func (s *Scheduler) Release(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(s.queueFor(tenant))
}

func (s *Scheduler) releaseLocked(q *schedQueue) {
	q.running--
	s.running--
	s.dispatch()
}

// queueFor returns (creating if needed) the tenant's queue.
func (s *Scheduler) queueFor(tenant string) *schedQueue {
	q, ok := s.queues[tenant]
	if !ok {
		q = &schedQueue{name: tenant, weight: 1}
		s.queues[tenant] = q
	}
	return q
}

// dispatch grants free slots to queued waiters until slots run out or no
// queue is eligible. Caller holds s.mu.
func (s *Scheduler) dispatch() {
	for s.running < s.slots && s.queued > 0 {
		q := s.pick()
		if q == nil {
			return // every non-empty queue is at its per-tenant cap
		}
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		s.queued--
		w.granted = true
		q.running++
		s.running++
		s.granted[q.name]++
		close(w.ready)
	}
}

// pick selects the next queue by smooth weighted round-robin over the
// eligible queues (non-empty, under their per-tenant cap): each gains
// its weight in credit, the highest credit wins and pays back the total.
// Ties break by name so scheduling is deterministic under test.
func (s *Scheduler) pick() *schedQueue {
	var best *schedQueue
	total := 0
	for _, q := range s.queues {
		if len(q.waiters) == 0 || (q.maxConc > 0 && q.running >= q.maxConc) {
			continue
		}
		total += q.weight
		q.current += q.weight
		if best == nil || q.current > best.current ||
			(q.current == best.current && q.name < best.name) {
			best = q
		}
	}
	if best != nil {
		best.current -= total
	}
	return best
}

// QueueDepths returns the per-tenant admission-queue depths (tenants
// with an empty queue and nothing running are omitted).
func (s *Scheduler) QueueDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for name, q := range s.queues {
		if len(q.waiters) > 0 || q.running > 0 {
			out[name] = len(q.waiters)
		}
	}
	return out
}

// Granted returns the per-tenant slot-grant counts (claim counts) since
// construction — the fairness tests' accounting of who actually ran.
func (s *Scheduler) Granted() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.granted))
	for name, n := range s.granted {
		out[name] = n
	}
	return out
}

// Running returns how many acquisitions currently hold slots.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// SetMaxQueue bounds the total number of queued waiters; an Acquire
// past the bound fails immediately with ErrQueueFull. 0 removes the
// bound. Safe to call at any time (hot reload).
func (s *Scheduler) SetMaxQueue(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	s.maxQueue = n
}

// Queued returns the total number of queued waiters.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Shed returns how many acquisitions were rejected at the queue bound.
func (s *Scheduler) Shed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

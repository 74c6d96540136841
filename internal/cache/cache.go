// Package cache provides the sharded, bounded, concurrency-safe cache
// that the moqod optimization service puts in front of the optimizer
// engine. The paper's Cloud-provider scenario (Trummer & Koch, SIGMOD
// 2014, Section 1) has the optimizer invoked over and over with varying
// weights and bounds on recurring query shapes; a cache keyed by a
// canonical request fingerprint turns every repetition into a lookup.
//
// moqod's frontier tier is one instance, keyed by the weight/bound-free
// moqo.Request.FrontierKey: its FrontierSnapshot values answer exact
// repeats and weight and bound changes alike with a SelectBest scan
// instead of a new optimization (the paper's Figure 3 re-weighting
// scenario). The OnEvict hook feeds the tier's snapshot-bytes gauge.
//
// Design:
//
//   - Sharding: keys hash onto 2^k independently locked shards, so
//     concurrent lookups contend only when they land on the same shard.
//   - Bounded LRU: each shard holds at most capacity/shards entries and
//     evicts its least-recently-used entry on overflow.
//   - Counters: hits, misses, evictions and coalesced waits are served
//     from atomics (see Stats) and feed the service's /metrics endpoint.
//   - Single-flight: Do coalesces concurrent lookups of the same key — the
//     first caller computes, the rest wait for its result — so a burst of
//     identical requests runs the optimizer engine exactly once.
//
// The cache stores immutable values: callers must not mutate what they Put
// or get back, since the same value is shared by every subsequent hit.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Source says where a Do result came from.
type Source int

const (
	// Miss: this caller computed the value.
	Miss Source = iota
	// Hit: the value was already cached.
	Hit
	// Coalesced: another caller was computing the same key; this caller
	// waited for that in-flight computation instead of starting its own.
	Coalesced
)

func (s Source) String() string {
	switch s {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "source(?)"
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// HitRatio returns hits (including coalesced waits, which also avoided a
// computation) over all lookups, or 0 before the first lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// entry is one cached key/value pair; it lives in a shard's LRU list.
type entry[V any] struct {
	key string
	val V
}

// shard is one independently locked LRU segment.
type shard[V any] struct {
	mu  sync.Mutex
	lru *list.List // front = most recently used; stores *entry[V]
	m   map[string]*list.Element
	cap int
}

// call is one in-flight computation other callers may wait on.
type call[V any] struct {
	done  chan struct{}
	val   V
	store bool
	err   error
	// waiters counts the callers that joined the flight (under flightMu),
	// so a test can tell when they have reached it.
	waiters int
}

// Cache is a sharded, bounded, concurrency-safe LRU cache with
// single-flight coalescing. The zero value is not usable; construct with
// New.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64

	flightMu sync.Mutex
	flights  map[string]*call[V]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	capacity  int

	onEvict func(key string, v V, reason EvictReason) // nil: no hook
}

// New builds a cache holding about capacity entries across the given
// number of shards (rounded up to a power of two; 0 picks 16). A
// capacity < 1 is raised to 1 per shard.
func New[V any](capacity, shards int) *Cache[V] {
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{
		shards:   make([]shard[V], n),
		mask:     uint64(n - 1),
		flights:  make(map[string]*call[V]),
		capacity: perShard * n,
	}
	for i := range c.shards {
		c.shards[i] = shard[V]{lru: list.New(), m: make(map[string]*list.Element), cap: perShard}
	}
	return c
}

// EvictReason says why a stored value left the cache.
type EvictReason int

const (
	// Replaced: a Put overwrote the key with a fresh value.
	Replaced EvictReason = iota
	// Evicted: the shard was full and the value was its least recently
	// used entry (the moqod frontier tier tells the disk store the
	// victim was in use until now).
	Evicted
)

// OnEvict sets the cache's one hook, invoked whenever a stored value
// leaves the cache — an LRU eviction, or replacement of an existing key by
// Put (the reason distinguishes the two). It lets a tier keep gauge-style
// accounting of what it currently holds (e.g. the moqod frontier tier's
// snapshot-bytes gauge) and tell a colder tier what capacity pressure
// pushed out. The hook runs on the goroutine of the Put that displaced the
// value, after that Put has released the shard lock: it may block, take
// other locks and call back into the cache, and the hooks of concurrent
// Puts may interleave. Set it before the cache is shared.
func (c *Cache[V]) OnEvict(fn func(key string, v V, reason EvictReason)) {
	c.onEvict = fn
}

// shardFor hashes the key onto its shard: an inlined FNV-1a over the
// string, so the hot path (every Get/Put/Do touches it up to three times)
// allocates nothing.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&c.mask]
}

// Get looks the key up, marking the entry most recently used. The counters
// are updated, making Get equivalent to a Do that never computes.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.m[key]
	if ok {
		s.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put stores the value, evicting the shard's least-recently-used entry if
// the shard is full. Storing an existing key refreshes its value and
// recency. At most one value leaves per Put; the OnEvict hook sees it
// after the shard unlocks.
func (c *Cache[V]) Put(key string, v V) {
	s := c.shardFor(key)
	var (
		gone   entry[V] // the value this Put pushed out, if left is set
		reason EvictReason
		left   bool
	)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		e := el.Value.(*entry[V])
		gone, reason, left = *e, Replaced, true
		e.val = v
		s.lru.MoveToFront(el)
	} else {
		if oldest := s.lru.Back(); oldest != nil && s.lru.Len() >= s.cap {
			s.lru.Remove(oldest)
			e := oldest.Value.(*entry[V])
			delete(s.m, e.key)
			c.evictions.Add(1)
			gone, reason, left = *e, Evicted, true
		}
		s.m[key] = s.lru.PushFront(&entry[V]{key: key, val: v})
	}
	s.mu.Unlock()
	if left && c.onEvict != nil {
		c.onEvict(gone.key, gone.val, reason)
	}
}

// Do returns the cached value for key, or computes it exactly once even
// under concurrent identical calls: the first caller runs compute (under
// its own ctx), every concurrent caller for the same key waits for that
// result (Coalesced). A waiter whose ctx ends stops waiting and returns
// ctx's error.
//
// compute reports whether its value may be stored (store=false results —
// e.g. timeout-degraded optimizations — are returned to the caller that
// computed them but not cached). Errors are never cached: the next Do for
// the key retries.
//
// Waiters only share *cacheable* outcomes. Two leader outcomes are
// per-caller: a store=false value, which may reflect the leader's private
// constraints (its shorter deadline degraded the result), and a context
// error, which means the leader went away — neither may leak to a healthy
// waiter whose own constraints differ. A waiter observing such an outcome
// stops coalescing and computes for itself (all such waiters in parallel:
// serializing them behind a chain of new leaders would multiply tail
// latency on exactly the keys whose results keep degrading). Plain errors
// (validation and the like) are deterministic and shared.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func(context.Context) (V, bool, error)) (V, Source, error) {
	var zero V
	coalesce := true
	for {
		if v, ok := c.peek(key); ok {
			c.hits.Add(1)
			return v, Hit, nil
		}

		c.flightMu.Lock()
		if fl, inFlight := c.flights[key]; inFlight && coalesce {
			fl.waiters++
			c.flightMu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return zero, Coalesced, ctx.Err()
			}
			if fl.err == nil && !fl.store {
				coalesce = false // leader's result was private (e.g. degraded)
				continue
			}
			if fl.err != nil && isContextErr(fl.err) {
				if err := ctx.Err(); err != nil {
					return zero, Coalesced, err
				}
				coalesce = false // the leader was cancelled, not this caller
				continue
			}
			c.coalesced.Add(1)
			return fl.val, Coalesced, fl.err
		} else if inFlight {
			// Retrying after a private/cancelled outcome: compute without
			// joining (or becoming) a flight, so every such retrier runs
			// concurrently under its own constraints.
			c.flightMu.Unlock()
			c.misses.Add(1)
			v, store, err := compute(ctx)
			if err == nil && store {
				c.Put(key, v)
			}
			return v, Miss, err
		}
		// Re-check under the flight lock: a flight that completed between
		// the first peek and here has already stored its value.
		if v, ok := c.peek(key); ok {
			c.flightMu.Unlock()
			c.hits.Add(1)
			return v, Hit, nil
		}
		fl := &call[V]{done: make(chan struct{})}
		c.flights[key] = fl
		c.flightMu.Unlock()

		c.misses.Add(1)
		fl.val, fl.store, fl.err = compute(ctx)
		if fl.err == nil && fl.store {
			c.Put(key, fl.val)
		}
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(fl.done)
		return fl.val, Miss, fl.err
	}
}

// isContextErr reports whether err is a cancellation/deadline error of
// whoever computed — an outcome tied to that caller, not to the key.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// peek is Get without counter updates, used by Do to keep its own
// accounting.
func (c *Cache[V]) peek(key string) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.capacity,
	}
}

package fault

import (
	"sync"
	"time"
)

// State is a breaker state.
type State int32

const (
	// Closed: the protected resource is believed healthy; all
	// operations pass through.
	Closed State = iota
	// Open: the resource is believed down; operations are skipped
	// until the backoff window elapses.
	Open
	// HalfOpen: the backoff window elapsed; exactly one probe
	// operation is allowed through to test the resource.
	HalfOpen
)

// String renders the state for metrics and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The open window's cap and randomized fraction: a window is
// cooldown * (1 ± jitter/2), deterministic from BreakerConfig.Seed so
// tests replay, and never longer than maxCooldown.
const (
	maxCooldown = 30 * time.Second
	jitter      = 0.2
)

// BreakerConfig tunes a Breaker. The zero value gets the documented
// defaults.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker (default 5).
	Threshold int
	// Cooldown is the first open window; each successive trip without
	// an intervening success doubles it up to 30s (default 250ms).
	Cooldown time.Duration
	// Seed drives the jitter sequence.
	Seed uint64
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a circuit breaker: consecutive failures trip it Open,
// operations are skipped for an exponentially growing (jittered)
// window, then a single HalfOpen probe decides between recovery
// (Closed) and another window (Open). Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int           // consecutive failures while Closed
	cooldown time.Duration // next open window
	retryAt  time.Time     // when Open may transition to HalfOpen
	probing  bool          // a HalfOpen probe is in flight
	trips    uint64
	rolls    uint64 // jitter sequence position
}

// NewBreaker builds a breaker from cfg.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, cooldown: cfg.Cooldown}
}

// Allow reports whether the caller may attempt the protected
// operation. While Open it returns false until the backoff window
// elapses; the first Allow after that becomes the HalfOpen probe
// (concurrent callers are refused until the probe resolves via
// Success or Failure).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Before(b.retryAt) {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful operation: a HalfOpen probe closes the
// breaker and resets the backoff; in Closed it clears the failure
// streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.state = Closed
	b.cooldown = b.cfg.Cooldown
}

// Cancel releases an allowed operation that turned out to perform no
// meaningful I/O (e.g. an in-memory miss that never touched the
// device): it proves nothing about the resource, so a HalfOpen probe
// is returned for the next caller and no state changes. In Closed and
// Open it is a no-op.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// Failure records a failed operation: in Closed it may trip the
// breaker; a failed HalfOpen probe reopens it with a doubled window.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		b.cooldown *= 2
		b.cooldown = min(b.cooldown, maxCooldown)
		b.trip()
	case Open:
		// A straggler from before the trip; nothing to update.
	}
}

// trip moves to Open and schedules the next probe window with
// deterministic jitter. Caller holds b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.failures = 0
	b.trips++
	b.rolls++
	// window = cooldown * (1 - jitter/2 + jitter*u), u in [0,1).
	u := float64(mix(b.cfg.Seed^b.rolls)>>11) / (1 << 53)
	scale := 1 - jitter/2 + jitter*u
	b.retryAt = b.cfg.Now().Add(time.Duration(float64(b.cooldown) * scale))
}

// State returns the current state (Open is reported even if the
// window has elapsed; the transition happens on the next Allow).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStats is a point-in-time snapshot for metrics.
type BreakerStats struct {
	State    string `json:"state"`
	Trips    uint64 `json:"trips"`
	Failures int    `json:"consecutive_failures"`
	// RetryInMs is how long until the next HalfOpen probe window
	// opens (0 unless Open).
	RetryInMs int64 `json:"retry_in_ms"`
}

// Stats snapshots the breaker for metrics export.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStats{State: b.state.String(), Trips: b.trips, Failures: b.failures}
	if b.state == Open {
		if d := b.retryAt.Sub(b.cfg.Now()); d > 0 {
			st.RetryInMs = d.Milliseconds()
		}
	}
	return st
}

package tenant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"moqo/internal/core"
)

// Rejection reasons reported by Registry.Admit (and exported on the
// Prometheus moqo_tenant_rejected_total{reason=...} series).
const (
	// ReasonRate: the tenant's token-bucket request budget is drained.
	ReasonRate = "rate"
	// ReasonTables: the query joins more tables than the quota allows.
	ReasonTables = "tables"
	// ReasonCost: the predicted optimization effort exceeds the quota's
	// admission ceiling.
	ReasonCost = "cost"
)

// maxTrackedTenants bounds the per-tenant state map: tenant names arrive
// on the wire, and an adversarial client cycling names must not grow the
// daemon without limit. Overflowing unknown tenants share the anonymous
// tenant's state (configured tenants always get their own).
const maxTrackedTenants = 512

// Decision is the outcome of an admission check.
type Decision struct {
	// OK: the request may proceed.
	OK bool
	// Reason is the rejection class (ReasonRate, ReasonTables,
	// ReasonCost) when !OK.
	Reason string
	// Err is a human-readable rejection message when !OK.
	Err error
	// RetryAfter is how long until a ReasonRate rejection would admit
	// (0 for rejections that waiting cannot fix).
	RetryAfter time.Duration
}

// bucket is one tenant's token-bucket request budget.
type bucket struct {
	tokens float64   // current tokens, <= burst
	last   time.Time // last refill
	rate   float64   // tokens per second
	burst  float64
}

// take consumes one token, refilling for the time elapsed since the last
// call; when the bucket is dry it reports how long until the next token.
func (b *bucket) take(now time.Time) (bool, time.Duration) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, wait
}

// state is one tenant's runtime accounting. All fields are guarded by
// the registry mutex: tenancy bookkeeping is a handful of integer
// updates per request, far off the optimization hot path.
type state struct {
	name   string
	quota  Quota
	bucket *bucket // nil when the quota has no request budget

	requests uint64
	admitted uint64
	rejected map[string]uint64 // by reason

	cacheBytes     int64
	cacheEntries   int64
	cacheEvictions uint64

	latency Window // served-request latencies (ms)
}

// tenantLatencyWindow is the per-tenant latency window size — smaller than
// the server-wide window, since there may be hundreds of tenants.
const tenantLatencyWindow = 256

// newBucket builds the quota's token bucket, or nil for an unlimited one.
func newBucket(q Quota, now time.Time) *bucket {
	if q.Requests <= 0 {
		return nil
	}
	return &bucket{
		tokens: float64(q.Burst),
		last:   now,
		rate:   float64(q.Requests) / (float64(q.IntervalMs) / 1000),
		burst:  float64(q.Burst),
	}
}

// Registry tracks per-tenant runtime state behind a hot-swappable
// config. It is safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	cfg    *Config
	states map[string]*state
	now    func() time.Time // injectable clock for tests
}

// NewRegistry builds a registry over a parsed config (nil means an empty
// config: every tenant gets the all-unlimited default quota).
func NewRegistry(cfg *Config) *Registry {
	if cfg == nil {
		cfg = &Config{Default: Quota{}.normalize()}
	}
	return &Registry{
		cfg:    cfg,
		states: make(map[string]*state),
		now:    time.Now,
	}
}

// Reload swaps the config in place (SIGHUP hot reload). Existing tenant
// states keep their counters; their quotas and token buckets are rebuilt
// from the new config (a resized budget starts with a full bucket).
func (r *Registry) Reload(cfg *Config) {
	if cfg == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg = cfg
	now := r.now()
	for name, st := range r.states {
		st.quota = cfg.quotaFor(name)
		st.bucket = newBucket(st.quota, now)
	}
}

// Resolve canonicalizes a wire tenant name: empty means Anonymous, and
// anything else must be a ValidName (names become Prometheus labels and
// map keys, so malformed ones are rejected at the door).
func (r *Registry) Resolve(name string) (string, error) {
	if name == "" {
		return Anonymous, nil
	}
	if !ValidName(name) {
		return "", fmt.Errorf("bad tenant name %q (want 1-%d chars of [A-Za-z0-9_.-])", name, maxTenantName)
	}
	return name, nil
}

// stateFor returns (creating if needed) the tenant's state. Unknown
// tenants past the tracking cap share the anonymous state, so wire-
// supplied names cannot grow the map without bound.
func (r *Registry) stateFor(name string) *state {
	if st, ok := r.states[name]; ok {
		return st
	}
	if _, configured := r.cfg.Tenants[name]; !configured && name != Anonymous &&
		len(r.states) >= maxTrackedTenants {
		return r.stateFor(Anonymous)
	}
	st := &state{
		name:     name,
		quota:    r.cfg.quotaFor(name),
		rejected: make(map[string]uint64),
		latency:  NewWindow(tenantLatencyWindow),
	}
	st.bucket = newBucket(st.quota, r.now())
	r.states[name] = st
	return st
}

// Quota returns the tenant's normalized quota under the current config.
func (r *Registry) Quota(name string) Quota {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stateFor(name).quota
}

// CountRequest counts one arriving request for the tenant (admitted or
// not — the Prometheus requests_total series).
func (r *Registry) CountRequest(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stateFor(name).requests++
}

// Admit runs the tenant's admission checks for one request: the table
// ceiling, the predicted-cost ceiling (core.PredictCost over the
// request's table count, objective count and algorithm), then the
// token-bucket request budget. Checks that cannot be fixed by waiting
// run first, so a rejected oversized request does not drain a token.
func (r *Registry) Admit(name string, tables, objectives int, algorithm string) Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stateFor(name)
	q := st.quota
	if q.MaxTables > 0 && tables > q.MaxTables {
		st.rejected[ReasonTables]++
		return Decision{Reason: ReasonTables,
			Err: fmt.Errorf("tenant %q: query joins %d tables, quota allows %d", name, tables, q.MaxTables)}
	}
	if q.MaxPredictedCost > 0 {
		if cost := core.PredictCost(tables, objectives, algorithm); cost > q.MaxPredictedCost {
			st.rejected[ReasonCost]++
			return Decision{Reason: ReasonCost,
				Err: fmt.Errorf("tenant %q: predicted optimization cost %.3g exceeds the quota ceiling %.3g", name, cost, q.MaxPredictedCost)}
		}
	}
	if st.bucket != nil {
		ok, wait := st.bucket.take(r.now())
		if !ok {
			st.rejected[ReasonRate]++
			return Decision{Reason: ReasonRate, RetryAfter: wait,
				Err: fmt.Errorf("tenant %q: request budget of %d per %dms exhausted", name, q.Requests, q.IntervalMs)}
		}
	}
	st.admitted++
	return Decision{OK: true}
}

// RecordLatency folds one served request into the tenant's latency window.
func (r *Registry) RecordLatency(name string, ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stateFor(name).latency.Record(ms)
}

// CacheAdd attributes a newly cached entry of the given size to the
// tenant whose request populated it (partition accounting only — cache
// keys and answers are tenant-free).
func (r *Registry) CacheAdd(name string, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stateFor(name)
	st.cacheBytes += bytes
	st.cacheEntries++
}

// CacheEvict releases a cached entry attributed to the tenant; evicted
// distinguishes capacity evictions (counted on the tenant's eviction
// series) from replacements.
func (r *Registry) CacheEvict(name string, bytes int64, evicted bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stateFor(name)
	st.cacheBytes -= bytes
	st.cacheEntries--
	if evicted {
		st.cacheEvictions++
	}
}

// Snapshot is one tenant's metrics at a point in time.
type Snapshot struct {
	Name     string
	Requests uint64
	Admitted uint64
	Rejected map[string]uint64

	CacheBytes     int64
	CacheEntries   int64
	CacheEvictions uint64

	LatencyWindow int
	LatencyP50Ms  float64
	LatencyP99Ms  float64
}

// Snapshots returns every tracked tenant's metrics, sorted by name (the
// stable order the Prometheus exposition and tests rely on).
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.states))
	for _, st := range r.states {
		snap := Snapshot{
			Name:           st.name,
			Requests:       st.requests,
			Admitted:       st.admitted,
			Rejected:       make(map[string]uint64, len(st.rejected)),
			CacheBytes:     st.cacheBytes,
			CacheEntries:   st.cacheEntries,
			CacheEvictions: st.cacheEvictions,
		}
		for reason, n := range st.rejected {
			snap.Rejected[reason] = n
		}
		snap.LatencyWindow, snap.LatencyP50Ms, snap.LatencyP99Ms = st.latency.Quantiles()
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Package server implements moqod's HTTP/JSON optimization service: the
// multi-user, repeated-invocation setting of the paper's Cloud-provider
// scenario (Trummer & Koch, SIGMOD 2014, Section 1), where one optimizer
// serves many tenants that submit recurring query shapes under varying
// weights and bounds.
//
// Four endpoints:
//
//	POST /optimize        — solve one MOQO problem (TPC-H shortcut or
//	                        inline catalog/query; per-request algorithm,
//	                        alpha, objectives, weights, bounds, workers
//	                        and deadline)
//	POST /optimize/batch  — solve a workload of problems over one shared
//	                        catalog as a batch: one catalog resolution
//	                        and per-shape cardinality warm-up, identical
//	                        members coalesced to one dynamic program,
//	                        re-weights answered from sibling frontiers,
//	                        cross-query subproblem reuse through a
//	                        batch-scoped shared memo, members scheduled
//	                        most-expensive-first; optional NDJSON
//	                        streaming of per-member results
//	GET  /metrics         — JSON snapshot of request, latency and cache
//	                        counters
//	GET  /healthz         — liveness probe
//
// Requests are served through a two-tier plan cache (internal/cache):
//
//   - An exact-result tier keyed by moqo.Request.CacheKey — a repeat of
//     the identical request (weights and bounds included) is a lookup.
//   - A frontier tier keyed by the weight/bound-free
//     moqo.Request.FrontierKey, holding compact Pareto-frontier
//     snapshots. A request that differs from a cached one only in
//     weights or bounds — the paper's Figure 3 re-weighting scenario —
//     is answered by a SelectBest scan over the snapshot in
//     microseconds instead of a new dynamic program (EXA/RTA reuse the
//     frontier outright; IRA seeds its refinement from it).
//
// Both tiers coalesce concurrent identical keys (single-flight), so a
// burst of requests for one query shape — even under distinct weights —
// runs the engine once. Cancellations propagate: a client disconnect
// aborts the in-flight dynamic program via moqo.OptimizeContext, and
// per-request deadlines degrade gracefully through the paper's timeout
// path. Timed-out (degraded) results are never stored in either tier, so
// every cached answer is a full-fidelity result.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moqo"
	"moqo/internal/cache"
	"moqo/internal/fault"
	"moqo/internal/tenant"
)

// Options configures a Server.
type Options struct {
	// CacheCapacity bounds the exact-result tier of the plan cache
	// (entries). 0 means the default (1024); negative disables caching
	// entirely (both tiers).
	CacheCapacity int
	// CacheShards is the shard count of the plan cache (rounded up to a
	// power of two; 0 picks the cache default). Applies to both tiers.
	CacheShards int
	// FrontierCacheCapacity bounds the frontier tier: FrontierSnapshots
	// keyed by the weight/bound-free moqo.Request.FrontierKey, from which
	// weight/bound changes are answered with a SelectBest scan instead of
	// a new optimization. 0 means the default (512); negative disables
	// the tier (re-weight requests then always recompute).
	FrontierCacheCapacity int
	// DefaultTimeout applies to requests without timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request timeouts (default 2m).
	MaxTimeout time.Duration
	// DefaultWorkers applies to requests without workers (default:
	// runtime.NumCPU()). Per-request workers are clamped to at most
	// runtime.NumCPU().
	DefaultWorkers int
	// DefaultEnumeration applies to requests without an enumeration
	// field. The zero value (moqo.EnumAuto) picks the graph-aware
	// strategy for connected join graphs — results are identical for
	// every strategy, so this only tunes enumeration work.
	DefaultEnumeration moqo.EnumerationStrategy
	// StorePath enables the disk-backed frontier store: marshaled
	// frontier snapshots persist under this directory, keyed by
	// FrontierKey, so a restarted server answers known query shapes from
	// disk instead of re-running their dynamic programs. Empty disables
	// persistence. The frontier tier must be enabled for the store to
	// see traffic.
	StorePath string
	// StoreMaxBytes bounds the store's live bytes (0 = the store default,
	// 256 MiB; negative = unbounded), mirroring the in-memory tier's LRU
	// boundedness on disk.
	StoreMaxBytes int64
	// StoreNoSync skips the fsync after each store append — faster
	// writes, and a crash may lose the most recent snapshots (recovery
	// still drops whatever was torn; nothing damaged is ever served).
	StoreNoSync bool
	// StoreFS is the filesystem seam handed to the frontier store (nil
	// means the real OS). Chaos tests and the -fig chaos harness pass a
	// fault.Injector to exercise disk failures deterministically.
	StoreFS fault.FS
	// NoStoreBreaker disables the store-tier circuit breaker — the
	// baseline for chaos measurements, where every request keeps paying
	// a failing disk's latency. The default (false) wraps every store
	// operation in a Closed/Open/HalfOpen breaker: repeated disk errors
	// trip it, serving degrades to memory-only (both cache tiers keep
	// answering), and half-open probes with exponential backoff retry
	// the disk.
	NoStoreBreaker bool
	// BreakerThreshold is the consecutive-failure count that trips the
	// store breaker (0 = the fault package default, 5).
	BreakerThreshold int
	// BreakerCooldown is the first open window before a half-open
	// probe; successive failed probes double it up to BreakerMaxCooldown
	// (0 = the defaults, 250ms and 30s).
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// MaxQueueDepth bounds the cold-DP scheduler's total queued
	// waiters: an arrival past the bound is shed immediately with 503 +
	// Retry-After instead of growing an unbounded latency cliff. It
	// complements the per-tenant token buckets (which cap rate, not
	// simultaneous backlog). 0 means unbounded.
	MaxQueueDepth int
	// Tenants is the tenant registry: identity resolution, per-tenant
	// quotas, cost-based admission, and per-tenant metrics. nil builds
	// an empty registry — every request is the anonymous tenant under an
	// all-unlimited quota, so an untenanted server behaves exactly as
	// before. Tenancy never affects answers: plans, costs and frontiers
	// are bit-for-bit identical with or without it (only scheduling,
	// limits and metrics change).
	Tenants *tenant.Registry
	// MaxColdDPs caps how many cold dynamic programs run concurrently
	// across all tenants — the fair scheduler's slot count. Requests
	// answered from the caches never consume a slot. 0 means
	// runtime.NumCPU().
	MaxColdDPs int
	// FIFOScheduling replaces fair weighted round-robin with one global
	// arrival-order queue over every request (cache hits included) — the
	// unfairness baseline for benchmarks and tests, not for production.
	FIFOScheduling bool
}

// withDefaults fills in the documented defaults.
func (o Options) withDefaults() Options {
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 1024
	}
	if o.FrontierCacheCapacity == 0 {
		o.FrontierCacheCapacity = 512
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.DefaultWorkers <= 0 {
		o.DefaultWorkers = runtime.NumCPU()
	}
	if o.MaxColdDPs == 0 {
		o.MaxColdDPs = runtime.NumCPU()
	}
	return o
}

// Server is the moqod optimization service. Construct with New; it is
// safe for concurrent use.
type Server struct {
	opts  Options
	cache *cache.Cache[OptimizeResponse] // nil when caching is disabled
	// frontier is the snapshot tier, keyed by moqo.Request.FrontierKey
	// (nil when disabled). It is consulted on exact-tier misses for
	// algorithms with reusable frontiers; a hit serves the request by a
	// SelectBest scan over the cached snapshot (moqo.ReoptimizeContext).
	frontier *cache.Cache[frontierEntry]
	// disk persists the frontier tier's snapshots across restarts (nil
	// when disabled; every method is nil-safe): the store, its breaker and
	// the snapshot codec are reachable only through it.
	disk  *diskTier
	start time.Time

	// tenants resolves identities, enforces quotas and keeps per-tenant
	// metrics; sched queues cold dynamic programs behind per-tenant
	// admission queues. Both always exist (an untenanted server gets an
	// empty registry and anonymous-only scheduling), so handlers never
	// branch on tenancy being configured.
	tenants *tenant.Registry
	sched   *tenant.Scheduler

	catMu    sync.Mutex
	catalogs map[float64]*moqo.Catalog // TPC-H catalogs by scale factor

	requests      atomic.Uint64
	batchRequests atomic.Uint64
	batchMembers  atomic.Uint64
	errors        atomic.Uint64
	inFlight      atomic.Int64
	// reweightServed counts requests answered from a cached frontier
	// snapshot (hit or coalesced on the frontier tier) rather than a DP.
	reweightServed atomic.Uint64
	// snapshotBytes gauges the estimated bytes of snapshots currently in
	// the frontier tier (adds on store, subtracts via the eviction hook).
	snapshotBytes atomic.Int64
	// shedOverload counts requests shed with 503 (queue bound hit, or
	// deadline budget exhausted while queued).
	shedOverload atomic.Uint64
	// panics counts contained panics — worker-pool panics surfaced as
	// ErrInternalPanic and handler panics caught by the recover
	// middleware. Each failed exactly one request.
	panics atomic.Uint64

	latMu      sync.Mutex
	latencies  []float64 // ring buffer of recent /optimize latencies (ms)
	latNext    int
	latSamples int
}

// latencyWindow is the sliding-window size of the latency metrics.
const latencyWindow = 1024

// New builds a Server, panicking if the frontier store cannot be opened
// (only possible with Options.StorePath set — use NewE to handle the
// error).
func New(opts Options) *Server {
	s, err := NewE(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// NewE builds a Server, opening the disk-backed frontier store when
// Options.StorePath is set. Callers that enable the store should Close
// the server on shutdown.
func NewE(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		start:     time.Now(),
		catalogs:  make(map[float64]*moqo.Catalog),
		latencies: make([]float64, latencyWindow),
		tenants:   opts.Tenants,
	}
	if s.tenants == nil {
		s.tenants = tenant.NewRegistry(nil)
	}
	policy := tenant.Fair
	if opts.FIFOScheduling {
		policy = tenant.FIFO
	}
	s.sched = tenant.NewScheduler(opts.MaxColdDPs, policy)
	s.sched.SetMaxQueue(opts.MaxQueueDepth)
	if opts.CacheCapacity > 0 {
		s.cache = cache.New[OptimizeResponse](opts.CacheCapacity, opts.CacheShards)
		// Cache-partition accounting: each stored response carries the
		// tenant whose request computed it, so its departure is charged
		// back exactly (attribution only — keys and values are
		// tenant-free, tenancy never changes what a lookup returns).
		s.cache.OnEvict(func(_ string, v OptimizeResponse, reason cache.EvictReason) {
			if v.tenant != "" {
				s.tenants.CacheEvict(v.tenant, respSizeBytes(v), reason == cache.Evicted)
			}
		})
		if opts.FrontierCacheCapacity > 0 {
			s.frontier = cache.New[frontierEntry](opts.FrontierCacheCapacity, opts.CacheShards)
			disk, err := openDiskTier(opts)
			if err != nil {
				return nil, err
			}
			s.disk = disk
			s.frontier.OnEvict(func(key string, ent frontierEntry, reason cache.EvictReason) {
				size := int64(ent.snap.SizeBytes())
				s.snapshotBytes.Add(-size)
				if ent.ten != "" {
					s.tenants.CacheEvict(ent.ten, size, reason == cache.Evicted)
				}
				if reason == cache.Evicted {
					// Touch, not rewrite: the store already holds the
					// snapshot's bytes from its write-through, so all the disk
					// tier needs to learn is that the shape was in use until
					// now — hot shapes then do not age out of the disk budget
					// while they sit in memory. A Replaced entry is superseded
					// by a finer snapshot the caller writes through itself.
					s.disk.Touch(key)
				}
			})
		}
	}
	return s, nil
}

// Close syncs and closes the frontier store. Call it only after the HTTP
// handler has stopped serving (http.Server.Shutdown): a request still in
// flight afterwards is answered from memory — its store reads miss, its
// write-through fails and its eviction touch is a no-op. Safe on a
// store-less server and more than once.
func (s *Server) Close() error { return s.disk.Close() }

// Handler returns the service's HTTP handler. Every route runs inside
// the panic-recovery middleware: a handler panic answers that one
// request with a structured 500 and leaves the server serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/optimize", s.handleOptimize)
	mux.HandleFunc("/optimize/batch", s.handleOptimizeBatch)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics/prometheus", s.handleMetricsPrometheus)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return s.recoverPanics(mux)
}

// recoverPanics contains handler panics: the panicking request gets a
// structured 500 (best-effort — headers may already be out) and the
// process keeps serving. http.ErrAbortHandler passes through, as the
// net/http contract requires.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Add(1)
			s.errors.Add(1)
			s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{
				Error: "internal: handler panic (contained)",
				Code:  CodeInternal,
			})
		}()
		next.ServeHTTP(w, r)
	})
}

// maxCachedCatalogs bounds the per-scale-factor TPC-H catalog memo; a
// client iterating over arbitrary scale factors must not grow the daemon
// without limit. Overflowing scale factors get a freshly built catalog
// per request — correctness is unaffected, since the plan cache keys on
// the catalog's content fingerprint, not its pointer.
const maxCachedCatalogs = 16

// tpchCatalog returns the (shared, immutable) TPC-H catalog for a scale
// factor, building it on first use.
func (s *Server) tpchCatalog(sf float64) *moqo.Catalog {
	s.catMu.Lock()
	defer s.catMu.Unlock()
	if cat, ok := s.catalogs[sf]; ok {
		return cat
	}
	cat := moqo.TPCHCatalog(sf)
	if len(s.catalogs) < maxCachedCatalogs {
		s.catalogs[sf] = cat
	}
	return cat
}

// handleOptimize serves POST /optimize.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	started := time.Now()

	ten, terr := s.resolveTenant(r)
	if terr != nil {
		s.writeError(w, http.StatusBadRequest, terr)
		return
	}
	s.tenants.CountRequest(ten)

	var wire OptimizeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}

	req, err := s.toMoqoRequest(&wire)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Timeout = s.clampTimeout(wire.TimeoutMs)
	req.Workers = s.clampWorkers(wire.Workers)

	// The cache key doubles as the request validator: anything it rejects
	// could never produce a result.
	key, err := req.CacheKey()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	// Admission: the tenant's table ceiling, predicted-cost ceiling and
	// request budget, checked before any optimization work.
	if d := s.tenants.Admit(ten, len(req.Query.Relations), len(req.Objectives), wire.Algorithm); !d.OK {
		s.writeAdmissionError(w, d)
		return
	}

	// Deadline budget: the request's wall budget starts at admission and
	// is carried by the context, so every wait downstream — the FIFO
	// gate, the cold-DP scheduler queue — consumes it. The dynamic
	// program folds the context deadline into the §5.1 degrade path, so
	// it gets exactly the remainder: queue time never silently eats
	// compute time and then some. A budget that dies while still queued
	// surfaces as DeadlineExceeded from Acquire and is shed with 503.
	ctx, cancelBudget := context.WithDeadline(r.Context(), started.Add(req.Timeout))
	defer cancelBudget()

	release, gerr := s.gateRequest(ctx, ten) // FIFO baseline only; no-op under Fair
	if gerr != nil {
		s.writeServeError(w, r, gerr)
		return
	}
	defer release()

	resp, err := s.serveMember(ctx, req, key, ten, wire.NoCache)
	if err != nil {
		s.writeServeError(w, r, err)
		return
	}

	if !wire.Frontier {
		resp.Frontier = nil // field-level copy; the cached value keeps its slice
	}
	ms := float64(time.Since(started)) / float64(time.Millisecond)
	s.recordLatency(ms)
	s.tenants.RecordLatency(ten, ms)
	s.writeJSON(w, http.StatusOK, resp)
}

// serveMember serves one resolved request — a single /optimize or one
// batch member — through the tiers: the exact tier's single-flight
// (identical requests run one dynamic program), then the frontier tier
// (re-weights are answered by a SelectBest scan), then the disk tier,
// then a cold optimization. noCache (the request's no_cache) bypasses
// all of them.
func (s *Server) serveMember(ctx context.Context, req moqo.Request, key, ten string, noCache bool) (OptimizeResponse, error) {
	if s.cache == nil || noCache {
		resp, _, err := s.compute(ctx, req, ten)
		return resp, err
	}
	resp, src, err := s.cache.Do(ctx, key, func(cctx context.Context) (OptimizeResponse, bool, error) {
		resp, store, err := s.computeViaFrontier(cctx, req, ten)
		if err == nil && store {
			// Stamp and attribute a storable result to the computing
			// tenant before the tier stores it, so the eviction hook can
			// charge the departure back exactly. The stamp is an
			// unexported field: it never serializes, and answers stay
			// bit-for-bit tenant-independent.
			resp.tenant = ten
			s.tenants.CacheAdd(ten, respSizeBytes(resp))
		}
		return resp, store, err
	})
	if err != nil {
		return OptimizeResponse{}, err
	}
	resp.Cached = src != cache.Miss
	return resp, nil
}

// frontierEntry is one frontier-tier record: the snapshot plus its
// response-form frontier, rendered once when the entry is stored. Every
// re-weight answered from the snapshot shares the rendered slice (it is
// weight-independent and never mutated — handlers strip the field on
// their response copy), so the fast path does not rebuild O(frontier)
// maps per request.
type frontierEntry struct {
	snap     *moqo.FrontierSnapshot
	frontier []map[string]float64
	// ten is the tenant whose request populated the entry — partition
	// accounting only, never part of the key or the answer.
	ten string
}

// newFrontierEntry builds the frontier-tier record for a snapshot about
// to enter the tier and accounts its arrival (bytes gauge, tenant
// attribution); the tier's eviction hook accounts the departure.
func (s *Server) newFrontierEntry(sn *moqo.FrontierSnapshot, frontier []map[string]float64, ten string) frontierEntry {
	size := int64(sn.SizeBytes())
	s.snapshotBytes.Add(size)
	s.tenants.CacheAdd(ten, size)
	return frontierEntry{snap: sn, frontier: frontier, ten: ten}
}

// computeViaFrontier serves an exact-tier miss through the frontier
// tier: if a snapshot for the request's weight/bound-free FrontierKey is
// cached (or being computed by a concurrent request for the same shape
// under different weights — the tier's single-flight coalesces them),
// the request is answered by a SelectBest scan over the snapshot in
// microseconds. Otherwise this caller runs the cold optimization, and
// its snapshot populates the tier for every later re-weight.
func (s *Server) computeViaFrontier(ctx context.Context, req moqo.Request, ten string) (OptimizeResponse, bool, error) {
	if s.frontier == nil || !req.ReusableFrontier() {
		return s.compute(ctx, req, ten)
	}
	fkey, err := req.FrontierKey()
	if err != nil {
		return OptimizeResponse{}, false, err
	}
	var lead *moqo.Result
	ent, _, err := s.frontier.Do(ctx, fkey, func(cctx context.Context) (frontierEntry, bool, error) {
		// Memory miss: consult the disk store before running a cold DP —
		// the warm-restart fast path. A disk hit repopulates the memory
		// tier and is served exactly like a memory hit below.
		if sn := s.disk.Get(fkey); sn != nil {
			return s.newFrontierEntry(sn, renderFrontier(sn.Objectives(), sn.FrontierVectors()), ten), true, nil
		}
		// Cold dynamic program: wait for a fair-scheduler slot. This is
		// the only place tenancy can delay work — every cache, frontier
		// and disk hit above bypasses the queue entirely.
		release, aerr := s.acquireCold(cctx, ten)
		if aerr != nil {
			return frontierEntry{}, false, aerr
		}
		res, sn, cerr := moqo.OptimizeSnapshotContext(cctx, req)
		release()
		if cerr != nil {
			return frontierEntry{}, false, cerr
		}
		lead = res
		if sn == nil {
			// Degraded runs return sn == nil and are stored in neither
			// tier nor the disk store; the store flag keeps them out of
			// this one.
			return frontierEntry{}, false, nil
		}
		// Write through on DP completion: one appended record per cold DP,
		// so a restart replays the tier from disk instead of re-running
		// dynamic programs.
		s.disk.Put(sn)
		return s.newFrontierEntry(sn, renderFrontier(res.Objectives(), res.FrontierVectors()), ten), true, nil
	})
	if err != nil {
		return OptimizeResponse{}, false, err
	}
	if lead != nil {
		// This caller ran the cold DP (leader, or a retrier after a
		// non-shareable outcome): answer from its own full result.
		resp, rerr := toResponse(lead)
		if rerr != nil {
			return OptimizeResponse{}, false, rerr
		}
		return resp, !lead.Stats.TimedOut, nil
	}
	if ent.snap == nil {
		return s.compute(ctx, req, ten)
	}
	res, newSnap, err := moqo.ReoptimizeContext(ctx, req, ent.snap)
	if err != nil {
		return OptimizeResponse{}, false, err
	}
	s.reweightServed.Add(1)
	shared := ent.frontier
	if newSnap != nil && newSnap != ent.snap {
		// A seeded IRA refined past the cached snapshot: keep the finer
		// frontier (Put's eviction hook releases the replaced one), and
		// re-render the wire form the refined result implies. The store
		// gets the finer snapshot too, superseding its seed on disk.
		shared = renderFrontier(res.Objectives(), res.FrontierVectors())
		s.frontier.Put(fkey, s.newFrontierEntry(newSnap, shared, ten))
		s.disk.Put(newSnap)
	}
	resp, err := toResponseWithFrontier(res, shared)
	if err != nil {
		return OptimizeResponse{}, false, err
	}
	return resp, !res.Stats.TimedOut, nil
}

// compute runs one optimization and renders it; the bool reports whether
// the response may be cached (degraded results may not). The run is a
// cold dynamic program, so it waits for a fair-scheduler slot first.
func (s *Server) compute(ctx context.Context, req moqo.Request, ten string) (OptimizeResponse, bool, error) {
	release, aerr := s.acquireCold(ctx, ten)
	if aerr != nil {
		return OptimizeResponse{}, false, aerr
	}
	defer release()
	res, err := moqo.OptimizeContext(ctx, req)
	if err != nil {
		return OptimizeResponse{}, false, err
	}
	resp, err := toResponse(res)
	if err != nil {
		return OptimizeResponse{}, false, err
	}
	return resp, !res.Stats.TimedOut, nil
}

// clampTimeout resolves a request's timeout_ms against the server limits.
func (s *Server) clampTimeout(ms int64) time.Duration {
	d := s.opts.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d
}

// clampWorkers resolves a request's workers knob; the cap keeps one
// request from oversubscribing the machine.
func (s *Server) clampWorkers(workers int) int {
	if workers <= 0 {
		workers = s.opts.DefaultWorkers
	}
	if max := runtime.NumCPU(); workers > max {
		workers = max
	}
	return workers
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// metricsSnapshot gathers every metric once. /metrics encodes the value
// as JSON and /metrics/prometheus walks the same value, so the two
// endpoints cannot disagree about what exists.
func (s *Server) metricsSnapshot() MetricsResponse {
	m := MetricsResponse{
		UptimeMs: float64(time.Since(s.start)) / float64(time.Millisecond),
		Requests: RequestMetrics{
			Optimize:     s.requests.Load(),
			Batch:        s.batchRequests.Load(),
			BatchMembers: s.batchMembers.Load(),
			Errors:       s.errors.Load(),
			InFlight:     s.inFlight.Load(),
			ShedOverload: s.shedOverload.Load(),
			Panics:       s.panics.Load(),
		},
		FrontierStore: s.disk.Stats(),
		Latency:       s.latencySnapshot(),
		Tenants:       s.tenantMetrics(),
	}
	if s.cache != nil {
		m.Cache = cacheMetrics(s.cache.Stats())
	}
	if s.frontier != nil {
		m.FrontierCache = FrontierCacheMetrics{
			CacheMetrics:   cacheMetrics(s.frontier.Stats()),
			ReweightServed: s.reweightServed.Load(),
			SnapshotBytes:  s.snapshotBytes.Load(),
		}
	}
	return m
}

// cacheMetrics renders one enabled cache tier's counters.
func cacheMetrics(st cache.Stats) CacheMetrics {
	return CacheMetrics{
		Enabled:   true,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Coalesced: st.Coalesced,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Capacity:  st.Capacity,
		HitRatio:  st.HitRatio(),
	}
}

// tenantMetrics renders the per-tenant metrics section: registry
// snapshots joined with the scheduler's queue depths and grant counts,
// sorted by tenant name.
func (s *Server) tenantMetrics() []TenantMetrics {
	snaps := s.tenants.Snapshots()
	if len(snaps) == 0 {
		return nil
	}
	depths := s.sched.QueueDepths()
	granted := s.sched.Granted()
	out := make([]TenantMetrics, len(snaps))
	for i, snap := range snaps {
		out[i] = TenantMetrics{
			Name:           snap.Name,
			Requests:       snap.Requests,
			Admitted:       snap.Admitted,
			Rejected:       snap.Rejected,
			QueueDepth:     depths[snap.Name],
			Granted:        granted[snap.Name],
			CacheBytes:     snap.CacheBytes,
			CacheEntries:   snap.CacheEntries,
			CacheEvictions: snap.CacheEvictions,
			Latency: LatencyMetrics{
				Window: snap.LatencyWindow,
				P50:    snap.LatencyP50Ms,
				P99:    snap.LatencyP99Ms,
			},
		}
	}
	return out
}

// healthSnapshot assembles the shared /healthz + /readyz body.
func (s *Server) healthSnapshot() HealthResponse {
	h := HealthResponse{
		Status:     "ok",
		Store:      "disabled",
		QueueDepth: s.sched.Queued(),
		Shed:       s.sched.Shed(),
		InFlight:   s.inFlight.Load(),
	}
	if enabled, bst := s.disk.Breaker(); enabled {
		h.Store, h.Breaker = "ok", bst
		if bst != nil {
			switch bst.State {
			case fault.Open.String():
				h.Store, h.Status, h.Degraded = "degraded", "degraded", true
			case fault.HalfOpen.String():
				h.Store, h.Status, h.Degraded = "probing", "degraded", true
			}
		}
	}
	return h
}

// handleHealthz serves GET /healthz — liveness. Always 200 while the
// process can serve requests, even degraded to memory-only; a restart
// would not help, so the orchestrator must not kill the process. The
// body carries the same detail as /readyz for operators.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.healthSnapshot())
}

// handleReadyz serves GET /readyz — readiness. 503 when the store is
// configured but the breaker has quarantined it: the server is up and
// answering from memory, but a load balancer preferring full-capacity
// replicas should route around it until the disk recovers.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.healthSnapshot()
	code := http.StatusOK
	if h.Degraded {
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// recordLatency folds one served request into the sliding window.
func (s *Server) recordLatency(ms float64) {
	s.latMu.Lock()
	s.latencies[s.latNext] = ms
	s.latNext = (s.latNext + 1) % len(s.latencies)
	if s.latSamples < len(s.latencies) {
		s.latSamples++
	}
	s.latMu.Unlock()
}

// latencySnapshot computes p50/p99 over the window.
func (s *Server) latencySnapshot() LatencyMetrics {
	s.latMu.Lock()
	window := make([]float64, s.latSamples)
	copy(window, s.latencies[:s.latSamples])
	s.latMu.Unlock()
	if len(window) == 0 {
		return LatencyMetrics{}
	}
	sort.Float64s(window)
	return LatencyMetrics{
		Window: len(window),
		P50:    Percentile(window, 0.50),
		P99:    Percentile(window, 0.99),
	}
}

// Percentile reads the p-quantile from an ascending-sorted sample
// (nearest-rank). Shared with benchmark/ and internal/bench's tenant and
// chaos experiments, so /metrics and they agree on what a percentile means.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

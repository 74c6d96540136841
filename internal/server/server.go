// Package server implements moqod's HTTP/JSON optimization service: the
// multi-user, repeated-invocation setting of the paper's Cloud-provider
// scenario (Trummer & Koch, SIGMOD 2014, Section 1), where one optimizer
// serves many tenants that resubmit recurring query shapes under varying
// weights and bounds.
//
//	POST /optimize        — solve one MOQO problem (TPC-H shortcut or
//	                        inline catalog/query; per-request algorithm,
//	                        alpha, objectives, weights, bounds, workers
//	                        and deadline)
//	POST /optimize/batch  — solve a workload of problems over one shared
//	                        catalog; optional NDJSON streaming of
//	                        per-member results
//	GET  /metrics, /metrics/prometheus — request, latency, tier and
//	                        per-tenant counters
//	GET  /healthz, /readyz — liveness and readiness
//
// Every request, single or batched, is one value with one lifecycle;
// /optimize is a batch of one:
//
//	decode → resolve → [schedule] → serve → tiers → encode
//
// Each arrow is a single function:
//
//   - decode (Server.decode): the size-limited, unknown-field-rejecting
//     JSON decode of the body.
//   - resolve (Server.resolve): wire request → member. Tenant, catalog,
//     query, knobs, clamped timeout and workers, then the service's one
//     moqo.Request.Resolve call — every check a request's content can
//     fail, its defaults and its algorithm, as one moqo.Resolved value
//     that admission, the schedule and the tiers all ask and nothing
//     re-derives — then admission under the resolved algorithm; fails
//     with a classified failure (validation before admission, or
//     admission).
//   - schedule (batchplan.New/Run, batches only): members most-expensive-
//     first, those of one query shape one after another in that order
//     (so who leads a shape is not a race), on `parallel` claimers of
//     which the handler is one — the same schedule moqo.OptimizeBatch
//     runs the library's batches under.
//   - serve (Server.serve): deadline budget, tiers, rendering the result
//     (toResponse; the frontier only for a request that asked for it),
//     latency; a failure is classified by Server.serveFailure, the one
//     switch from a serve error to (wire code, HTTP status, reason).
//     Nothing a client wrote gets this far, so its default is a 500.
//   - tiers (tiers.Serve, which answers with a moqo.Result): exa, rta and
//     ira walk frontier tier (keyed by
//     moqo.Resolved.FrontierKey, the weight/bound-free request prefix, so
//     a repeat or the paper's Figure 3 re-weighting is a SelectBest scan,
//     microseconds instead of a dynamic program) → disk store → cold
//     dynamic program; the baselines run cold. The frontier tier coalesces
//     concurrent identical keys (single-flight), so a burst for one query
//     shape runs the engine once; only the cold dynamic program waits for
//     a slot.
//   - encode (Server.writeJSON / writeFailure; a batch's emit): the
//     response, or the failure's status line and structured body.
//
// Cancellations propagate: a client disconnect aborts the in-flight
// dynamic program via moqo.OptimizeContext, and per-request deadlines
// degrade gracefully through the paper's timeout path. Timed-out
// (degraded) results are never stored in any tier, so every cached answer
// is a full-fidelity result.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"moqo"
	"moqo/internal/fault"
	"moqo/internal/tenant"
)

// Options configures a Server.
type Options struct {
	// CacheCapacity is kept for callers of the exact-result plan cache,
	// which is gone: a negative value disables caching entirely, any other
	// value is ignored.
	CacheCapacity int
	// CacheShards is the shard count of the frontier tier (rounded up to a
	// power of two; 0 picks the cache default).
	CacheShards int
	// FrontierCacheCapacity bounds the frontier tier: FrontierSnapshots
	// keyed by the weight/bound-free moqo.Resolved.FrontierKey, from which
	// exact repeats and weight/bound changes are answered with a SelectBest
	// scan instead of a new optimization. 0 means the default (512);
	// negative disables the tier, and with it all caching: every exa, rta
	// and ira request, an exact repeat included, then runs its dynamic
	// program.
	FrontierCacheCapacity int
	// DefaultTimeout applies to requests without timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-request timeouts (default 2m).
	MaxTimeout time.Duration
	// DefaultWorkers applies to requests without workers (default:
	// runtime.NumCPU()). Per-request workers are clamped to at most
	// runtime.NumCPU().
	DefaultWorkers int
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
	// BreakerThreshold is the consecutive-failure count that trips the
	// store breaker (0 = the fault package default, 5). A configured store
	// always has one: every store operation passes a Closed/Open/HalfOpen
	// breaker, repeated disk errors trip it, serving degrades to
	// memory-only (the frontier tier keeps answering), and half-open probes
	// with exponential backoff retry the disk.
	BreakerThreshold int
	// BreakerCooldown is the first open window before a half-open
	// probe; successive failed probes double it, up to 30s (0 = the
	// default, 250ms).
	BreakerCooldown time.Duration
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
}

// withDefaults fills in the documented defaults.
func (o Options) withDefaults() Options {
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
	start time.Time

	// tiers answers resolved requests: frontier tier → disk store → cold
	// dynamic program, or for the baselines a cold run.
	tiers *tiers

	// tenants resolves identities, enforces quotas and keeps per-tenant
	// metrics; sched queues cold dynamic programs behind per-tenant
	// admission queues. Both always exist (an untenanted server gets an
	// empty registry and anonymous-only scheduling), so handlers never
	// branch on tenancy being configured.
	tenants *tenant.Registry
	sched   *tenant.Scheduler

	catMu    sync.Mutex
	catalogs map[float64]*tpchMemo // TPC-H by scale factor

	requests      atomic.Uint64
	batchRequests atomic.Uint64
	batchMembers  atomic.Uint64
	errors        atomic.Uint64
	inFlight      atomic.Int64
	// shedOverload counts requests and batch members shed (queue bound
	// hit, or deadline budget exhausted while queued).
	shedOverload atomic.Uint64
	// panics counts contained panics — worker-pool panics surfaced as
	// ErrInternalPanic and handler panics caught by the recover
	// middleware. Each failed exactly one request or member.
	panics atomic.Uint64

	latMu   sync.Mutex
	latency tenant.Window // recent served latencies (ms), requests and members
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
		opts:     opts,
		start:    time.Now(),
		catalogs: make(map[float64]*tpchMemo),
		latency:  tenant.NewWindow(latencyWindow),
		tenants:  opts.Tenants,
	}
	if s.tenants == nil {
		s.tenants = tenant.NewRegistry(nil)
	}
	s.sched = tenant.NewScheduler(opts.MaxColdDPs, tenant.Fair)
	s.sched.SetMaxQueue(opts.MaxQueueDepth)
	tiers, err := newTiers(opts, s.tenants, s.acquireCold)
	if err != nil {
		return nil, err
	}
	s.tiers = tiers
	return s, nil
}

// Close syncs and closes the frontier store. Call it only after the HTTP
// handler has stopped serving (http.Server.Shutdown): a request still in
// flight afterwards is answered from memory — its store reads miss, its
// write-through fails and its eviction touch is a no-op. Safe on a
// store-less server and more than once.
func (s *Server) Close() error { return s.tiers.Close() }

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

// maxCachedCatalogs bounds the per-scale-factor TPC-H memo; a client
// iterating over arbitrary scale factors must not grow the daemon without
// limit. Overflowing scale factors get a freshly built catalog and query
// per request — correctness is unaffected, since the frontier tier keys on
// the catalog's content fingerprint, not its pointer.
const maxCachedCatalogs = 16

// tpchMemo is TPC-H at one scale factor: the catalog and the queries built
// over it by number, guarded by Server.catMu. Both are only read once
// built, so one object serves every request.
type tpchMemo struct {
	cat     *moqo.Catalog
	queries map[int]*moqo.Query
}

// tpch returns the TPC-H catalog at scale factor sf and, when n is not 0,
// TPC-H query n over it, building either on first use.
func (s *Server) tpch(sf float64, n int) (*moqo.Catalog, *moqo.Query, error) {
	s.catMu.Lock()
	defer s.catMu.Unlock()
	memo, ok := s.catalogs[sf]
	if !ok {
		memo = &tpchMemo{cat: moqo.TPCHCatalog(sf), queries: make(map[int]*moqo.Query)}
		if len(s.catalogs) < maxCachedCatalogs {
			s.catalogs[sf] = memo
		}
	}
	q, ok := memo.queries[n]
	if n != 0 && !ok {
		var err error
		if q, err = moqo.TPCHQuery(n, memo.cat); err != nil {
			return nil, nil, err
		}
		memo.queries[n] = q
	}
	return memo.cat, q, nil
}

// decode reads the request's JSON body into v, bounded by limit and
// rejecting unknown fields; on failure it answers 400 (413 past the limit)
// and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// handleOptimize serves POST /optimize: decode, one member through the
// lifecycle, and the HTTP rendering of its answer or failure.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	started := time.Now()

	var wire OptimizeRequest
	if !s.decode(w, r, 1<<20, &wire) {
		return
	}
	var m member
	fail := s.resolve(&m, &wire, r.Header.Get(TenantHeader), nil, nil)
	if fail == nil {
		var resp OptimizeResponse
		if resp, fail = s.serve(r.Context(), &m, started); fail == nil {
			s.writeJSON(w, http.StatusOK, resp)
			return
		}
		if r.Context().Err() != nil {
			return // the client went away: counted, and nobody to answer
		}
	}
	s.writeFailure(w, fail)
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
		Tenants: s.tenantMetrics(),
	}
	m.FrontierCache, m.FrontierStore = s.tiers.Metrics()
	s.latMu.Lock()
	m.Latency.Window, m.Latency.P50, m.Latency.P99 = s.latency.Quantiles()
	s.latMu.Unlock()
	return m
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
	if bst := s.tiers.disk.Breaker(); bst != nil {
		h.Store, h.Breaker = "ok", bst
		switch bst.State {
		case fault.Open.String():
			h.Store, h.Status, h.Degraded = "degraded", "degraded", true
		case fault.HalfOpen.String():
			h.Store, h.Status, h.Degraded = "probing", "degraded", true
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

// Percentile reads the p-quantile from an ascending-sorted sample
// (nearest-rank): tenant.Percentile, under the name benchmark/ and
// internal/bench import.
func Percentile(sorted []float64, p float64) float64 { return tenant.Percentile(sorted, p) }

// jsonEncoder is a response encoder bound to its own buffer. Pooled, a
// response reuses both the buffer and the indenting scratch json.Encoder
// keeps instead of growing them afresh.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncoders = sync.Pool{New: func() any {
	e := new(jsonEncoder)
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// maxPooledBody bounds the buffer an encoder keeps in the pool: one that
// grew past it for a large body (a batch, a rendered frontier, many
// tenants' metrics) is dropped rather than held for every later response.
const maxPooledBody = 64 << 10

// writeJSON answers with status and v as indented JSON: the bytes a
// json.Encoder with SetIndent("", "  ") writes, in one Write, and nothing
// when v does not encode.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	e := jsonEncoders.Get().(*jsonEncoder)
	if e.enc.Encode(v) == nil {
		_, _ = w.Write(e.buf.Bytes())
	}
	if e.buf.Cap() <= maxPooledBody {
		e.buf.Reset()
		jsonEncoders.Put(e)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.errors.Add(1)
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

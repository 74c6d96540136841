package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"moqo"
	"moqo/internal/fault"
	"moqo/internal/objective"
)

// OptimizeRequest is the JSON body of POST /optimize — a batch of one: the
// query comes either as a TPC-H shortcut (tpch) or inline (query), against
// the inline catalog or, without one, TPC-H at scale_factor.
type OptimizeRequest struct {
	// TPCH selects TPC-H query 1-22 against the scale_factor catalog.
	TPCH        int     `json:"tpch,omitempty"`
	ScaleFactor float64 `json:"scale_factor,omitempty"` // default 1

	// Catalog and Query describe an arbitrary schema and join query
	// inline (mutually exclusive with tpch).
	Catalog *CatalogSpec `json:"catalog,omitempty"`
	Query   *QuerySpec   `json:"query,omitempty"`

	// Algorithm is exa, rta, ira, selinger or weightedsum; empty picks
	// the library default (rta, or ira when bounds are present).
	Algorithm string `json:"algorithm,omitempty"`
	// Alpha is the approximation precision for rta/ira (default 1.2).
	Alpha float64 `json:"alpha,omitempty"`

	// Objectives to optimize, by name (required). Weights, Bounds and
	// Precisions are keyed by the same names.
	Objectives []string           `json:"objectives"`
	Weights    map[string]float64 `json:"weights,omitempty"`
	Bounds     map[string]float64 `json:"bounds,omitempty"`
	Precisions map[string]float64 `json:"precisions,omitempty"`

	// TimeoutMs caps this request's optimization time; 0 uses the
	// server's default, and the server's max_timeout clamps it either
	// way. On timeout the optimizer degrades (stats.timed_out is set)
	// rather than failing.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Workers shards the request's dynamic program across goroutines;
	// 0 uses the server default. Results are identical for any value.
	Workers int `json:"workers,omitempty"`
	// MaxDOP caps operator parallelism in produced plans (default 4).
	MaxDOP int `json:"max_dop,omitempty"`
	// NoCache bypasses every cache tier and the store for this request (it
	// neither reads nor populates them) — chiefly for measuring, or for
	// forcing a fresh optimization.
	NoCache bool `json:"no_cache,omitempty"`
	// Frontier includes the (approximate) Pareto frontier's cost vectors
	// in the response.
	Frontier bool `json:"frontier,omitempty"`
}

// BatchRequest is the JSON body of POST /optimize/batch: a workload of
// member requests optimized as one batch against one shared catalog.
// The catalog comes either inline (catalog) or as the TPC-H catalog at
// scale_factor; it is resolved once, and every member query is built
// against the same catalog object, so members share its statistics and
// fingerprint, and — per distinct query shape — one built query object.
// Members whose specs are equal (equal json.Marshal output, whatever their
// key order, whitespace or number spelling) share one *QuerySpec.
// Members additionally share a batch-scoped subproblem memo (see
// moqo.SharedMemo): overlapping queries skip each other's solved table
// sets, identical members run one dynamic program, and re-weights are
// answered from a sibling's Pareto frontier. Results are bit-for-bit what
// each member would get from its own POST /optimize.
type BatchRequest struct {
	// Catalog describes the shared schema inline; omitted, the TPC-H
	// catalog at scale_factor (default 1) is used and members select
	// their queries with tpch numbers.
	Catalog     *CatalogSpec `json:"catalog,omitempty"`
	ScaleFactor float64      `json:"scale_factor,omitempty"`

	// Members are the workload's requests (at least one).
	Members []BatchMemberRequest `json:"members"`

	// Parallel caps how many member dynamic programs run concurrently
	// (0 = the server's worker default, clamped to the CPU count). The
	// members in flight share the cores: each one's workers knob is capped
	// at CPU count / members in flight.
	Parallel int `json:"parallel,omitempty"`

	// Stream switches the response to NDJSON: one BatchMemberResponse
	// object per line, emitted as each member completes (completion
	// order, not member order), instead of one collected BatchResponse.
	Stream bool `json:"stream,omitempty"`
}

// BatchMemberRequest is one member of a batch: an OptimizeRequest minus
// the catalog fields (the batch resolves the catalog once for everyone)
// and minus no_cache (members always go through the shared cache tiers,
// which is what dedupes identical members).
type BatchMemberRequest struct {
	// TPCH selects TPC-H query 1-22 against the batch catalog (TPC-H
	// mode only). Mutually exclusive with query.
	TPCH int `json:"tpch,omitempty"`
	// Query describes the member's join query against the batch catalog.
	Query *QuerySpec `json:"query,omitempty"`

	// Tenant is the member's tenant identity, overriding the batch
	// request's X-Moqo-Tenant header for this member (a gateway batching
	// many tenants' traffic sets it per member). Empty falls back to the
	// header, then to the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`

	Algorithm  string             `json:"algorithm,omitempty"`
	Alpha      float64            `json:"alpha,omitempty"`
	Objectives []string           `json:"objectives"`
	Weights    map[string]float64 `json:"weights,omitempty"`
	Bounds     map[string]float64 `json:"bounds,omitempty"`
	Precisions map[string]float64 `json:"precisions,omitempty"`
	TimeoutMs  int64              `json:"timeout_ms,omitempty"`
	Workers    int                `json:"workers,omitempty"`
	MaxDOP     int                `json:"max_dop,omitempty"`
	Frontier   bool               `json:"frontier,omitempty"`
}

// BatchMemberResponse is one member's outcome. Exactly one of Result and
// Error is set.
type BatchMemberResponse struct {
	// Member is the index into the request's members array (streamed
	// responses arrive in completion order, so the index is the join key).
	Member int               `json:"member"`
	Result *OptimizeResponse `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
	// ErrorCode classifies a member failure: validation (malformed
	// member), admission (the member tenant's quota rejected it), overload
	// (shed from the cold-DP queue), canceled, or internal — the codes
	// /optimize answers with. Empty when Result is set.
	ErrorCode string `json:"error_code,omitempty"`
	// Reason refines an admission rejection (rate, tables, cost) or a shed
	// (queue_full, budget_exhausted), as ErrorResponse.Reason does.
	Reason string `json:"reason,omitempty"`
	// RetryAfterMs accompanies rate-limited admission rejections and sheds.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// BatchResponse is the JSON body of a successful non-streaming POST
// /optimize/batch.
type BatchResponse struct {
	// Members holds one response per member, in member order.
	Members []BatchMemberResponse `json:"members"`
	Stats   BatchStatsResponse    `json:"stats"`
}

// BatchStatsResponse summarizes what the batch shared.
type BatchStatsResponse struct {
	Members int `json:"members"`
	Errors  int `json:"errors"`
	// SharedSubproblems counts the solved subproblems the batch published
	// to its shared memo; SharedHits counts member lookups served from
	// them (cross-query subexpression reuse).
	SharedSubproblems int     `json:"shared_subproblems"`
	SharedHits        int64   `json:"shared_hits"`
	DurationMs        float64 `json:"duration_ms"`
}

// CatalogSpec describes a schema's statistics inline.
type CatalogSpec struct {
	Tables  []TableSpec `json:"tables"`
	Indexes []IndexSpec `json:"indexes,omitempty"`
}

// TableSpec is one base table's statistics.
type TableSpec struct {
	Name  string  `json:"name"`
	Rows  float64 `json:"rows"`
	Width int     `json:"width"`
	// PK names the primary-key column; it is indexed automatically.
	PK string `json:"pk,omitempty"`
}

// IndexSpec is one secondary index.
type IndexSpec struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Unique bool   `json:"unique,omitempty"`
}

// QuerySpec describes a join query inline.
type QuerySpec struct {
	Name      string         `json:"name,omitempty"`
	Relations []RelationSpec `json:"relations"`
	Joins     []JoinSpec     `json:"joins,omitempty"`
}

// RelationSpec is one from-clause entry.
type RelationSpec struct {
	Table string `json:"table"`
	// Alias must be unique within the query; defaults to the table name.
	Alias string `json:"alias,omitempty"`
	// FilterSel is the combined selectivity of filters on this relation,
	// in (0,1]; 0 means "no filter" (1).
	FilterSel float64 `json:"filter_sel,omitempty"`
}

// JoinSpec is one equi-join predicate between relations (by index into
// relations).
type JoinSpec struct {
	Left        int     `json:"left"`
	Right       int     `json:"right"`
	LeftCol     string  `json:"left_col"`
	RightCol    string  `json:"right_col"`
	Selectivity float64 `json:"selectivity"`
}

// OptimizeResponse is the JSON body of a successful POST /optimize.
type OptimizeResponse struct {
	// Algorithm that actually ran (the requested one, or the resolved
	// default).
	Algorithm string `json:"algorithm"`
	// Plan is the selected plan as an operator tree (operators,
	// parameters, estimated rows, per-node costs).
	Plan json.RawMessage `json:"plan"`
	// Cost maps each active objective to the selected plan's cost.
	Cost map[string]float64 `json:"cost"`
	// Frontier holds the cost vectors of the (approximate) Pareto
	// frontier; present only when the request asked for it.
	Frontier []map[string]float64 `json:"frontier,omitempty"`
	// Stats describes the optimization run that produced the plan. For a
	// cached answer these are the stats of the original computation.
	Stats StatsResponse `json:"stats"`
	// Cached reports an answer derived from a cached frontier snapshot
	// (stats.reused_frontier). The baselines are never cached.
	Cached bool `json:"cached"`
}

// StatsResponse mirrors moqo.Stats on the wire.
type StatsResponse struct {
	DurationMs  float64 `json:"duration_ms"`
	Considered  int     `json:"considered"`
	Stored      int     `json:"stored"`
	MemoryBytes int64   `json:"memory_bytes"`
	ParetoLast  int     `json:"pareto_last"`
	// EnumSets and EnumSplits report the enumeration work of the run
	// (table sets scanned, ordered split pairs visited).
	EnumSets   int  `json:"enum_sets"`
	EnumSplits int  `json:"enum_splits"`
	TimedOut   bool `json:"timed_out"`
	Iterations int  `json:"iterations"`
	// ReusedFrontier reports that the response was served from a cached
	// frontier snapshot (a SelectBest scan, or an IRA refinement seeded
	// from one) instead of a cold dynamic program — the frontier tier's
	// re-weight fast path. The effort counters above then describe the
	// originating run; duration_ms is the serve time of the reuse path.
	ReusedFrontier bool `json:"reused_frontier"`
	// SharedMemoHits counts subproblems this run served from a batch's
	// shared memo instead of solving them itself (POST /optimize/batch;
	// always 0 for standalone /optimize runs).
	SharedMemoHits int `json:"shared_memo_hits,omitempty"`
}

// ErrorResponse is the JSON body of a non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable failure class (CodeValidation,
	// CodeAdmission, ...); empty for failures ahead of the lifecycle (wrong
	// method, undecodable body).
	Code string `json:"code,omitempty"`
	// Reason refines an admission rejection (rate, tables, cost) or a shed
	// (queue_full, budget_exhausted).
	Reason string `json:"reason,omitempty"`
	// RetryAfterMs hints when a rate-rejected tenant will have budget
	// again, or a shed request may retry (mirrors the Retry-After header,
	// at millisecond precision).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// MetricsResponse is the JSON body of GET /metrics: a point-in-time
// snapshot of the service and cache counters.
type MetricsResponse struct {
	UptimeMs float64        `json:"uptime_ms"`
	Requests RequestMetrics `json:"requests"`
	// Cache is all-zero: it stands for the exact-result plan cache, which
	// is gone, and stays on the wire for the clients that read it.
	Cache CacheMetrics `json:"cache"`
	// FrontierCache snapshots the frontier tier (all-zero when disabled):
	// cached Pareto-frontier snapshots keyed by the weight/bound-free
	// request prefix, from which re-weight traffic is served without
	// re-optimizing.
	FrontierCache FrontierCacheMetrics `json:"frontier_cache"`
	// FrontierStore snapshots the disk-backed frontier store (all-zero
	// when persistence is disabled): snapshots written through on DP
	// completion and consulted on frontier-tier misses, so a restarted
	// server answers known query shapes from disk.
	FrontierStore FrontierStoreMetrics `json:"frontier_store"`
	Latency       LatencyMetrics       `json:"latency_ms"`
	// Tenants holds one entry per tracked tenant (sorted by name; omitted
	// before the first tenant-attributed request).
	Tenants []TenantMetrics `json:"tenants,omitempty"`
}

// TenantMetrics is one tenant's serving metrics: admission outcomes,
// fair-scheduler state, cache-partition accounting, and latency. The
// cache numbers attribute shared-cache residency to the tenant whose
// request populated each entry — accounting only; the cache itself is
// shared and its keys are tenant-free.
type TenantMetrics struct {
	Name     string            `json:"name"`
	Requests uint64            `json:"requests"`
	Admitted uint64            `json:"admitted"`
	Rejected map[string]uint64 `json:"rejected,omitempty"`
	// QueueDepth is the tenant's current cold-DP admission-queue length;
	// Granted counts slots the scheduler has granted it since start.
	QueueDepth int    `json:"queue_depth"`
	Granted    uint64 `json:"granted"`

	CacheBytes     int64  `json:"cache_bytes"`
	CacheEntries   int64  `json:"cache_entries"`
	CacheEvictions uint64 `json:"cache_evictions"`

	Latency LatencyMetrics `json:"latency_ms"`
}

// RequestMetrics counts /optimize and /optimize/batch traffic. Errors
// counts failed requests plus failed batch members; InFlight counts
// whole requests of either kind.
type RequestMetrics struct {
	Optimize     uint64 `json:"optimize"`
	Batch        uint64 `json:"batch"`
	BatchMembers uint64 `json:"batch_members"`
	Errors       uint64 `json:"errors"`
	InFlight     int64  `json:"in_flight"`
	// ShedOverload counts requests rejected with 503 at the
	// load-shedding bound: the cold-DP queue was full, or the request's
	// deadline budget died while it was still queued.
	ShedOverload uint64 `json:"shed_overload"`
	// Panics counts contained panics — worker-pool panics surfaced as a
	// structured 500 and handler panics caught by the recovery
	// middleware. The process survived every one of them.
	Panics uint64 `json:"panics"`
}

// CacheMetrics snapshots a cache tier. As MetricsResponse.Cache, the
// exact-result plan cache the server no longer has, it always reads zero.
type CacheMetrics struct {
	Enabled   bool    `json:"enabled"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRatio  float64 `json:"hit_ratio"`
}

// FrontierCacheMetrics snapshots the frontier tier (all-zero when the tier
// is disabled). Hits/Misses/Coalesced/Evictions count tier lookups; every
// cacheable exa, rta and ira request looks the tier up once.
type FrontierCacheMetrics struct {
	CacheMetrics
	// ReweightServed counts requests answered from a cached snapshot —
	// a SelectBest scan (or seeded IRA) instead of a cold optimization.
	ReweightServed uint64 `json:"reweight_served"`
	// SnapshotBytes gauges the estimated memory of the snapshots
	// currently cached in the tier.
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// FrontierStoreMetrics snapshots the disk-backed frontier store
// (all-zero when the store is disabled).
type FrontierStoreMetrics struct {
	Enabled bool `json:"enabled"`
	// Hits and Misses count disk lookups; the store is only consulted on
	// frontier-tier (memory) misses, so a hit is a warm restart or a
	// re-promotion after memory eviction.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Writes counts snapshot appends: DP-completion write-throughs and
	// seeded-IRA refinements. A memory eviction only touches the entry's
	// recency and writes nothing.
	Writes uint64 `json:"writes"`
	// Bytes is the store's live payload footprint on disk; Evictions
	// counts entries dropped to keep it under the configured budget.
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
	// CorruptDropped counts entries dropped instead of served: torn or
	// checksum-failed records at open or read time, plus entries that
	// passed the store's checksums but failed snapshot decoding.
	CorruptDropped uint64 `json:"corrupt_dropped"`
	// Compactions counts completed segment-log compactions.
	Compactions uint64 `json:"compactions"`
	Entries     int    `json:"entries"`
	// IOErrors counts device-level I/O failures (failed writes, fsyncs,
	// reads) observed by the store — distinct from CorruptDropped, which
	// is data damage.
	IOErrors uint64 `json:"io_errors"`
	// Skipped counts store operations not attempted because the circuit
	// breaker was open — serving degraded to memory-only for those.
	Skipped uint64 `json:"skipped"`
	// Breaker is the store circuit breaker's state (present exactly when
	// the store is): "closed" (healthy), "open" (disk quarantined, serving
	// memory-only), or "half-open" (probing recovery).
	Breaker *fault.BreakerStats `json:"breaker,omitempty"`
}

// HealthResponse is the JSON body of GET /healthz (liveness, always
// 200 while the process serves) and GET /readyz (readiness, 503 when
// Degraded). The two endpoints share a body so operators see the same
// facts either way.
type HealthResponse struct {
	// Status is "ok", or "degraded" when the store breaker is open and
	// the server is answering from memory only.
	Status string `json:"status"`
	// Degraded is true when persistence is configured but quarantined by
	// the breaker: the server still answers, but nothing is read from or
	// written through to disk until it recovers.
	Degraded bool `json:"degraded"`
	// Store reports the persistence tier: "disabled", "ok", "degraded"
	// (breaker open), or "probing" (half-open).
	Store string `json:"store"`
	// Breaker mirrors the store breaker's stats (present exactly when the
	// store is configured).
	Breaker *fault.BreakerStats `json:"breaker,omitempty"`
	// QueueDepth is the total cold-DP admission queue depth; Shed counts
	// requests rejected at the load-shedding bound since start.
	QueueDepth int    `json:"queue_depth"`
	Shed       uint64 `json:"shed"`
	InFlight   int64  `json:"in_flight"`
}

// LatencyMetrics summarizes served /optimize latencies over a sliding
// window of recent requests.
type LatencyMetrics struct {
	Window int     `json:"window"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
}

// parseObjectives resolves objective names.
func parseObjectives(names []string) ([]moqo.Objective, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("objectives: at least one required")
	}
	out := make([]moqo.Objective, 0, len(names))
	for _, name := range names {
		o, err := objective.ParseID(name)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// parseObjectiveMap parses a wire map keyed by objective name. Of several
// unknown names it reports the first in sorted order, so one body always
// gets one error text whatever order the map ranges in.
func parseObjectiveMap(field string, m map[string]float64) (map[moqo.Objective]float64, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[moqo.Objective]float64, len(m))
	var unknown string
	var firstErr error
	for name, x := range m {
		o, err := objective.ParseID(name)
		if err != nil {
			if firstErr == nil || name < unknown {
				unknown, firstErr = name, err
			}
			continue
		}
		out[o] = x
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%s: %w", field, firstErr)
	}
	return out, nil
}

// buildCatalog converts a CatalogSpec into a catalog; the catalog's
// builders validate every table and index.
func buildCatalog(spec *CatalogSpec) (*moqo.Catalog, error) {
	if len(spec.Tables) == 0 {
		return nil, fmt.Errorf("catalog: no tables")
	}
	cat := moqo.NewCatalog()
	for _, t := range spec.Tables {
		if _, err := cat.AddTableE(t.Name, t.Rows, t.Width, t.PK); err != nil {
			return nil, err
		}
	}
	for _, ix := range spec.Indexes {
		if err := cat.AddIndexE(ix.Table, ix.Column, ix.Unique); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// buildQuery converts a QuerySpec into a query against cat, filling the
// wire's defaults (name "adhoc", alias the table's name, filter_sel 0 as
// 1); the query's builders validate every relation and join.
func buildQuery(spec *QuerySpec, cat *moqo.Catalog) (*moqo.Query, error) {
	if len(spec.Relations) == 0 {
		return nil, fmt.Errorf("query: no relations")
	}
	q := moqo.NewQuery(cmp.Or(spec.Name, "adhoc"), cat)
	for _, r := range spec.Relations {
		if _, err := q.AddRelationE(r.Table, cmp.Or(r.Alias, r.Table), cmp.Or(r.FilterSel, 1)); err != nil {
			return nil, err
		}
	}
	for _, j := range spec.Joins {
		if err := q.AddJoinE(j.Left, j.Right, j.LeftCol, j.RightCol, j.Selectivity); err != nil {
			return nil, err
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// applyKnobs resolves the wire request's algorithm/objective knobs onto a
// moqo.Request whose query is already set. The timeout and workers knobs
// are resolved by the caller (they are clamped, not parsed).
func applyKnobs(req *moqo.Request, wire *OptimizeRequest) error {
	if wire.Algorithm != "" {
		alg, err := moqo.ParseAlgorithm(wire.Algorithm)
		if err != nil {
			return err
		}
		req.Algorithm = alg
	}
	req.Alpha = wire.Alpha
	req.MaxDOP = wire.MaxDOP

	objectives, err := parseObjectives(wire.Objectives)
	if err != nil {
		return err
	}
	req.Objectives = objectives
	if req.Weights, err = parseObjectiveMap("weights", wire.Weights); err != nil {
		return err
	}
	if req.Bounds, err = parseObjectiveMap("bounds", wire.Bounds); err != nil {
		return err
	}
	if req.Precisions, err = parseObjectiveMap("precisions", wire.Precisions); err != nil {
		return err
	}
	return nil
}

// asOptimizeRequest views a batch member as the equivalent standalone
// wire request over the batch's inline catalog (nil: TPC-H), so resolve
// treats members and /optimize requests identically.
func (m *BatchMemberRequest) asOptimizeRequest(catalog *CatalogSpec) OptimizeRequest {
	return OptimizeRequest{
		TPCH:       m.TPCH,
		Catalog:    catalog,
		Query:      m.Query,
		Algorithm:  m.Algorithm,
		Alpha:      m.Alpha,
		Objectives: m.Objectives,
		Weights:    m.Weights,
		Bounds:     m.Bounds,
		Precisions: m.Precisions,
		TimeoutMs:  m.TimeoutMs,
		Workers:    m.Workers,
		MaxDOP:     m.MaxDOP,
		Frontier:   m.Frontier,
	}
}

// toResponse renders an optimization result on the wire, on every route
// alike. The frontier is rendered only when the request asked for it
// (withFrontier), straight from the result's frontier plans: a result
// served from a snapshot carries the snapshot's rows, so nothing rendered
// is kept with a tier's entry. Cached is stats.reused_frontier: an answer
// derived from a stored snapshot.
func toResponse(res *moqo.Result, withFrontier bool) (OptimizeResponse, error) {
	planJSON, err := res.PlanJSON()
	if err != nil {
		return OptimizeResponse{}, err
	}
	objs := res.Objectives()
	cost := make(map[string]float64, len(objs))
	for _, o := range objs {
		cost[o.String()] = res.Cost(o)
	}
	var frontier []map[string]float64
	if withFrontier {
		frontier = make([]map[string]float64, len(res.Frontier))
		for i, p := range res.Frontier {
			point := make(map[string]float64, len(objs))
			for _, o := range objs {
				point[o.String()] = p.Cost.Get(o)
			}
			frontier[i] = point
		}
	}
	return OptimizeResponse{
		Algorithm: res.Algorithm.String(),
		Plan:      planJSON,
		Cost:      cost,
		Frontier:  frontier,
		Stats: StatsResponse{
			DurationMs:     float64(res.Stats.Duration) / float64(time.Millisecond),
			Considered:     res.Stats.Considered,
			Stored:         res.Stats.Stored,
			MemoryBytes:    res.Stats.MemoryBytes,
			ParetoLast:     res.Stats.ParetoLast,
			EnumSets:       res.Stats.EnumSets,
			EnumSplits:     res.Stats.EnumSplits,
			TimedOut:       res.Stats.TimedOut,
			Iterations:     res.Stats.Iterations,
			ReusedFrontier: res.Stats.ReusedFrontier,
			SharedMemoHits: res.Stats.SharedMemoHits,
		},
		Cached: res.Stats.ReusedFrontier,
	}, nil
}

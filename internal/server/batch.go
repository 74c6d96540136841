package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moqo"
	"moqo/internal/core"
)

// maxBatchMembers bounds one batch; a workload larger than this should be
// split by the client (the limit exists so one request cannot queue
// unbounded work behind one connection).
const maxBatchMembers = 1024

// maxBatchBody bounds the /optimize/batch request body — larger than the
// single-request limit because one batch carries many member specs.
const maxBatchBody = 8 << 20

// batchMember is one member's serving state: the resolved request (nil
// Query when buildErr is set), its cache key, its tenant, and the
// response slot. A failed member carries its wire error code (and, for
// rate-limited admission, a retry hint) alongside buildErr.
type batchMember struct {
	idx      int
	req      moqo.Request
	key      string
	ten      string
	frontier bool // include the frontier in this member's response
	cost     float64

	buildErr     error
	errCode      string
	retryAfterMs int64

	// turn and ticket order the member among those sharing its query
	// object (handleOptimizeBatch).
	turn   *queryTurn
	ticket int
}

// queryTurn serializes the batch members that share one query object in
// the order their tickets were issued. Members are claimed in schedule
// order, so whoever holds ticket k-1 was claimed before the holder of k
// and is being served: a waiter only ever waits on work in progress.
type queryTurn struct {
	mu      sync.Mutex
	cond    sync.Cond
	issued  int // tickets handed out while scheduling
	serving int // the ticket whose turn it is
}

func newQueryTurn() *queryTurn {
	qt := &queryTurn{}
	qt.cond.L = &qt.mu
	return qt
}

func (qt *queryTurn) wait(ticket int) {
	qt.mu.Lock()
	for qt.serving != ticket {
		qt.cond.Wait()
	}
	qt.mu.Unlock()
}

func (qt *queryTurn) done() {
	qt.mu.Lock()
	qt.serving++
	qt.mu.Unlock()
	qt.cond.Broadcast()
}

// handleOptimizeBatch serves POST /optimize/batch: a workload of member
// requests optimized against one shared catalog. The catalog is resolved
// once; distinct member query specs build one query object each, so
// members of the same shape share one cardinality/selectivity warm-up;
// all members publish solved subproblems to one batch-scoped shared memo
// (moqo.SharedMemo) and are scheduled most-expensive-first
// (core.PredictCost). Every member is served through the same two cache
// tiers as /optimize — identical members coalesce to one dynamic program
// and re-weights are answered from a sibling's frontier snapshot — and
// every member's answer is bit-for-bit its standalone /optimize answer.
//
// With "stream": true the response is NDJSON — one BatchMemberResponse
// per line in completion order, flushed as members finish; otherwise one
// BatchResponse collects every member in member order.
func (s *Server) handleOptimizeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	s.batchRequests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	started := time.Now()

	// The header tenant is the default identity for every member; a
	// member's tenant field overrides it (a gateway batching many
	// tenants' traffic sets it per member). Member identities are
	// resolved, counted and admitted per member in buildBatchMembers.
	headerTen, terr := s.resolveTenant(r)
	if terr != nil {
		s.writeError(w, http.StatusBadRequest, terr)
		return
	}

	var wire BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	if len(wire.Members) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("members: at least one required"))
		return
	}
	if len(wire.Members) > maxBatchMembers {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("members: %d exceeds the limit of %d", len(wire.Members), maxBatchMembers))
		return
	}
	s.batchMembers.Add(uint64(len(wire.Members)))

	// One catalog for the whole batch: inline, or TPC-H at scale_factor.
	var cat *moqo.Catalog
	inline := wire.Catalog != nil
	if inline {
		c, err := buildCatalog(wire.Catalog)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		cat = c
	} else {
		sf := wire.ScaleFactor
		if sf == 0 {
			sf = 1
		}
		if sf < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("scale_factor must be positive"))
			return
		}
		cat = s.tpchCatalog(sf)
	}

	ctx := r.Context()
	// The FIFO unfairness baseline gates the whole batch in the global
	// arrival-order queue (no-op under the fair policy, where only cold
	// member DPs queue — per tenant, inside serving).
	release, gerr := s.gateRequest(ctx, headerTen)
	if gerr != nil {
		s.writeServeError(w, r, gerr)
		return
	}
	defer release()

	members := s.buildBatchMembers(&wire, cat, inline, headerTen)

	// Emit serialized: the streaming writer and the collecting slice are
	// both single-writer under this mutex.
	var (
		emitMu  sync.Mutex
		results []BatchMemberResponse
		flusher http.Flusher
		enc     *json.Encoder
	)
	if wire.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ = w.(http.Flusher)
		enc = json.NewEncoder(w)
	} else {
		results = make([]BatchMemberResponse, len(members))
	}
	emit := func(resp BatchMemberResponse) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if wire.Stream {
			_ = enc.Encode(resp) // one JSON object per line
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		results[resp.Member] = resp
	}

	// Fail invalid and quota-rejected members immediately and
	// independently; schedule the rest most-expensive-first so long
	// dynamic programs start at once and cheap overlapping members find
	// their subproblems pre-published.
	var runnable []*batchMember
	for i := range members {
		m := &members[i]
		if m.buildErr != nil {
			s.errors.Add(1)
			emit(BatchMemberResponse{
				Member:       m.idx,
				Error:        m.buildErr.Error(),
				ErrorCode:    m.errCode,
				RetryAfterMs: m.retryAfterMs,
			})
			continue
		}
		runnable = append(runnable, m)
	}
	sort.SliceStable(runnable, func(i, j int) bool { return runnable[i].cost > runnable[j].cost })

	// Members sharing a query object must not optimize concurrently (its
	// cardinality memo is written without locks; the first run warms it
	// for the rest). They take turns in schedule order, not in whatever
	// order their servers reach a lock: which member of a group runs the
	// dynamic program and which ones reuse it (stats.reused_frontier,
	// cached) is then the same on every run. Serving in turn also covers
	// the re-weight and cache-hit paths, which are microseconds.
	turns := make(map[*moqo.Query]*queryTurn)
	for _, m := range runnable {
		qt := turns[m.req.Query]
		if qt == nil {
			qt = newQueryTurn()
			turns[m.req.Query] = qt
		}
		m.turn, m.ticket = qt, qt.issued
		qt.issued++
	}

	parallel := wire.Parallel
	if parallel <= 0 {
		parallel = s.opts.DefaultWorkers
	}
	if max := runtime.NumCPU(); parallel > max {
		parallel = max
	}
	if parallel > len(runnable) {
		parallel = len(runnable)
	}

	// The batch fans out across members, so a member's own dynamic program
	// gets its share of the cores, not all of them: the two levels of
	// parallelism do not multiply into more runnable threads than the
	// machine has, and a batch's latency does not hang on how many cores
	// happen to be idle. Members of one query object serialize (above), so
	// at most one member per distinct query is in flight.
	share := workerShare(runtime.NumCPU(), min(parallel, len(turns)))
	for _, m := range runnable {
		m.req.Workers = min(m.req.Workers, share)
	}

	// serve claims and serves members until none are left. The handler's
	// own goroutine is one of the parallel servers: a batch with parallel 1
	// spawns nothing, and otherwise the handler works instead of waiting.
	var next atomic.Int64
	serve := func() {
		for {
			n := int(next.Add(1) - 1)
			if n >= len(runnable) {
				return
			}
			m := runnable[n]
			memberStart := time.Now()
			// Per-member deadline budget: the member's wall budget starts
			// when a worker picks it up, so scheduler queue wait inside
			// serving consumes it and the DP gets exactly the remainder.
			// A budget that dies while queued sheds that member alone.
			mctx, cancel := context.WithDeadline(ctx, memberStart.Add(m.req.Timeout))
			m.turn.wait(m.ticket)
			resp, err := s.serveMember(mctx, m.req, m.key, m.ten, false)
			m.turn.done()
			cancel()
			if err != nil {
				s.errors.Add(1)
				emit(BatchMemberResponse{Member: m.idx, Error: err.Error(), ErrorCode: classifyServeError(err)})
				continue
			}
			if !m.frontier {
				resp.Frontier = nil // field-level copy; cached value keeps its slice
			}
			ms := float64(time.Since(memberStart)) / float64(time.Millisecond)
			s.recordLatency(ms)
			s.tenants.RecordLatency(m.ten, ms)
			emit(BatchMemberResponse{Member: m.idx, Result: &resp})
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < parallel; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve()
		}()
	}
	serve()
	wg.Wait()

	if ctx.Err() != nil && wire.Stream {
		return // client gone mid-stream; nothing left to write
	}
	if wire.Stream {
		return
	}
	errs := 0
	for i := range results {
		if results[i].Error != "" {
			errs++
		}
	}
	hits, _, published := s.batchMemo(members).Counters()
	s.writeJSON(w, http.StatusOK, BatchResponse{
		Members: results,
		Stats: BatchStatsResponse{
			Members:           len(members),
			Errors:            errs,
			SharedSubproblems: int(published),
			SharedHits:        hits,
			DurationMs:        float64(time.Since(started)) / float64(time.Millisecond),
		},
	})
}

// workerShare is the most workers one member's dynamic program gets when
// inFlight members of a batch run side by side on cpus cores.
func workerShare(cpus, inFlight int) int {
	if inFlight <= 1 {
		return cpus
	}
	return max(1, cpus/inFlight)
}

// buildBatchMembers resolves every member spec against the batch catalog:
// distinct query specs build one query object each (deduped, so members
// of one shape share its cardinality memo), knobs parse exactly like
// /optimize, and one fresh shared memo is attached to every valid member.
// Each member resolves its own tenant (its tenant field, falling back to
// the request header) and passes that tenant's admission checks before
// it may run. Build and admission failures are per-member (buildErr plus
// a wire error code), never batch-wide.
func (s *Server) buildBatchMembers(wire *BatchRequest, cat *moqo.Catalog, inline bool, headerTen string) []batchMember {
	shared := moqo.NewSharedMemo()
	queries := make(map[string]*moqo.Query)
	members := make([]batchMember, len(wire.Members))
	for i := range wire.Members {
		spec := &wire.Members[i]
		m := &members[i]
		m.idx = i
		m.frontier = spec.Frontier

		m.ten = headerTen
		if spec.Tenant != "" {
			ten, err := s.tenants.Resolve(spec.Tenant)
			if err != nil {
				m.buildErr = fmt.Errorf("member %d: %w", i, err)
				m.errCode = CodeValidation
				continue
			}
			m.ten = ten
		}
		s.tenants.CountRequest(m.ten)

		q, err := s.buildMemberQuery(spec, cat, inline, queries)
		if err != nil {
			m.buildErr = fmt.Errorf("member %d: %w", i, err)
			m.errCode = CodeValidation
			continue
		}
		m.req.Query = q
		view := spec.asOptimizeRequest()
		if err := s.applyKnobs(&m.req, &view); err != nil {
			m.buildErr = fmt.Errorf("member %d: %w", i, err)
			m.errCode = CodeValidation
			continue
		}
		m.req.Timeout = s.clampTimeout(spec.TimeoutMs)
		m.req.Workers = s.clampWorkers(spec.Workers)
		m.req.Shared = shared

		// The cache key doubles as the member validator, exactly as on
		// /optimize.
		key, err := m.req.CacheKey()
		if err != nil {
			m.buildErr = fmt.Errorf("member %d: %w", i, err)
			m.errCode = CodeValidation
			continue
		}
		m.key = key
		m.cost = core.PredictCost(len(q.Relations), len(m.req.Objectives), spec.Algorithm)

		// Admission runs once the member is known valid, so a rejected
		// member reports its quota problem, not a parsing one.
		if d := s.tenants.Admit(m.ten, len(q.Relations), len(m.req.Objectives), spec.Algorithm); !d.OK {
			m.buildErr = fmt.Errorf("member %d: %w", i, d.Err)
			m.errCode = CodeAdmission
			m.retryAfterMs = d.RetryAfter.Milliseconds()
			continue
		}
	}
	return members
}

// buildMemberQuery resolves one member's query against the batch catalog,
// deduping identical specs to one query object.
func (s *Server) buildMemberQuery(spec *BatchMemberRequest, cat *moqo.Catalog, inline bool, queries map[string]*moqo.Query) (*moqo.Query, error) {
	switch {
	case spec.TPCH != 0 && spec.Query != nil:
		return nil, fmt.Errorf("tpch and query are mutually exclusive")
	case spec.TPCH != 0:
		if inline {
			return nil, fmt.Errorf("tpch members require the TPC-H catalog (omit the batch catalog)")
		}
		key := fmt.Sprintf("t:%d", spec.TPCH)
		if q, ok := queries[key]; ok {
			return q, nil
		}
		q, err := moqo.TPCHQuery(spec.TPCH, cat)
		if err != nil {
			return nil, err
		}
		queries[key] = q
		return q, nil
	case spec.Query != nil:
		// Struct marshaling is deterministic, so equal specs dedupe to one
		// query object (and its warmed cardinality memo).
		raw, err := json.Marshal(spec.Query)
		if err != nil {
			return nil, err
		}
		key := "q:" + string(raw)
		if q, ok := queries[key]; ok {
			return q, nil
		}
		q, err := buildQuery(spec.Query, cat)
		if err != nil {
			return nil, err
		}
		queries[key] = q
		return q, nil
	default:
		return nil, fmt.Errorf("either tpch or query is required")
	}
}

// batchMemo recovers the batch's shared memo from any valid member (they
// all carry the same one); a batch of only invalid members gets an empty
// memo for its stats.
func (s *Server) batchMemo(members []batchMember) *moqo.SharedMemo {
	for i := range members {
		if members[i].req.Shared != nil {
			return members[i].req.Shared
		}
	}
	return moqo.NewSharedMemo()
}

package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"moqo"
	"moqo/internal/batchplan"
)

// maxBatchMembers bounds one batch; a workload larger than this should be
// split by the client (the limit exists so one request cannot queue
// unbounded work behind one connection).
const maxBatchMembers = 1024

// maxBatchBody bounds the /optimize/batch request body — larger than the
// single-request limit because one batch carries many member specs.
const maxBatchBody = 8 << 20

// handleOptimizeBatch serves POST /optimize/batch: decode, N members
// through the lifecycle /optimize sends one through, under one schedule.
// What the members share is what makes it a batch: the catalog is resolved
// once; distinct member query specs build one query object each, so
// members of the same shape share one cardinality/selectivity warm-up; all
// members publish solved subproblems to one batch-scoped shared memo
// (moqo.SharedMemo); and they are served ticket-major (internal/batchplan):
// every shape's leader, most expensive first, before any shape's second
// member. The tiers do the rest — identical members coalesce
// to one dynamic program and re-weights are answered from a sibling's
// frontier snapshot — and every member's answer is bit-for-bit its
// standalone /optimize answer.
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
	// tenants' traffic sets it per member). Members are resolved, counted
	// and admitted one by one, under their own identities.
	headerTen, err := s.tenants.Resolve(r.Header.Get(TenantHeader))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var wire BatchRequest
	if !s.decode(w, r, maxBatchBody, &wire) {
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
	cat, _, err := s.catalogFor(wire.Catalog, wire.ScaleFactor, 0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	// Emit serialized: the streaming writer and the collecting slice are
	// both single-writer under this mutex.
	var (
		emitMu  sync.Mutex
		results []BatchMemberResponse
		errs    int
		flusher http.Flusher
		enc     *json.Encoder
	)
	if wire.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ = w.(http.Flusher)
		enc = json.NewEncoder(w)
	} else {
		results = make([]BatchMemberResponse, len(wire.Members))
	}
	emit := func(resp BatchMemberResponse) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if resp.Error != "" {
			errs++
		}
		if wire.Stream {
			_ = enc.Encode(resp) // one JSON object per line
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		results[resp.Member] = resp
	}
	emitFailure := func(i int, f *failure) {
		emit(BatchMemberResponse{
			Member:       i,
			Error:        fmt.Sprintf("member %d: %v", i, f.err),
			ErrorCode:    f.code,
			Reason:       f.reason,
			RetryAfterMs: f.retryAfter.Milliseconds(),
		})
	}

	// Resolve every member against the batch catalog. Invalid and
	// quota-rejected members fail immediately and independently; the rest
	// are scheduled.
	shared := moqo.NewSharedMemo()
	queries := make(map[string]*moqo.Query)
	members := make([]member, len(wire.Members))
	runnable := make([]int, 0, len(members)) // indices into members
	for i := range wire.Members {
		spec, m := &wire.Members[i], &members[i]
		view := spec.asOptimizeRequest(wire.Catalog)
		if fail := s.resolve(m, &view, cmp.Or(spec.Tenant, headerTen), cat, queries); fail != nil {
			emitFailure(i, fail)
			continue
		}
		m.req.SetShared(shared)
		runnable = append(runnable, i)
	}

	// One lane per query object, so the members of one shape are served
	// in ticket order, most expensive first: the first runs the dynamic
	// program, the rest answer from what it cached, the same ones on every
	// run. (Running them side by side would be safe — a built query is
	// only read — but who leads would be a race.) Claims are ticket-major:
	// every lane's leader, most expensive first, before any lane's
	// follower, so distinct dynamic programs run side by side on the cores
	// workerShare divides below, long ones start at once, and cheap
	// overlapping leaders find some subproblems pre-published — fewer than
	// if they waited for the long ones, the CPU this order pays for its
	// makespan. A follower claimed early would only park its claimer; the
	// re-weight and cache-hit paths followers take are microseconds.
	plan := batchplan.New(len(runnable),
		func(k int) float64 { return members[runnable[k]].req.PredictedCost() },
		func(k int) *moqo.Query { return members[runnable[k]].req.Request().Query })

	parallel := min(s.clampWorkers(wire.Parallel), len(runnable))

	// The batch fans out across members, so a member's own dynamic program
	// gets its share of the cores, not all of them: the two levels of
	// parallelism do not multiply into more runnable threads than the
	// machine has, and a batch's latency does not hang on how many cores
	// happen to be idle. At most one member per lane is in flight.
	share := workerShare(runtime.NumCPU(), min(parallel, plan.Lanes()))
	for _, i := range runnable {
		req := &members[i].req
		req.SetWorkers(min(req.Request().Workers, share))
	}

	plan.Run(parallel, func(k int) {
		i := runnable[k]
		// The member's deadline budget starts when its turn comes.
		resp, fail := s.serve(r.Context(), &members[i], time.Now())
		if fail != nil {
			emitFailure(i, fail)
			return
		}
		emit(BatchMemberResponse{Member: i, Result: &resp})
	})

	if wire.Stream {
		return
	}
	hits, _, published := shared.Counters()
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

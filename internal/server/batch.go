package server

import (
	"cmp"
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
// once; a member's query spec that repeats an earlier one byte for byte is
// not decoded again and canonically equal specs are one (decodeBatch), so
// the work before the first dynamic program grows with the distinct specs,
// not the members;
// distinct specs build one query object each, so members of the same shape
// share one cardinality/selectivity warm-up; all
// members publish solved subproblems to one batch-scoped shared memo
// (moqo.SharedMemo); and they are served one shape at a time per claimer
// (internal/batchplan): a claimer takes the next shape, shapes in the
// order of their most expensive member, and serves its members whole,
// leader first. Each member is encoded where it finishes, on the claimer
// that served it, so encoding overlaps the dynamic programs still running.
// The tiers do the rest — identical members coalesce
// to one dynamic program and re-weights are answered from a sibling's
// frontier snapshot — and every member's answer is bit-for-bit its
// standalone /optimize answer.
//
// With "stream": true the response is NDJSON — one BatchMemberResponse
// per line in completion order, flushed as members finish; otherwise one
// BatchResponse collects every member in member order, written in one
// Write as the bytes json.Encoder would write for it (writeBatch).
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
	if !s.decodeBatch(w, r, &wire) {
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

	// Each member is rendered where it finishes, on the claimer that
	// served it: as an NDJSON line, written under emitMu, or at its depth
	// in the collected body, whose encoder is held until the body is
	// written.
	var (
		emitMu   sync.Mutex
		flusher  http.Flusher
		results  []BatchMemberResponse // collected mode, by member
		rendered []*jsonEncoder        // results[i] rendered; nil if it did not encode
	)
	if wire.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ = w.(http.Flusher)
	} else {
		results = make([]BatchMemberResponse, len(wire.Members))
		rendered = make([]*jsonEncoder, len(wire.Members))
	}
	emit := func(resp BatchMemberResponse) {
		if !wire.Stream {
			// Each member is emitted once: its slots need no lock.
			results[resp.Member] = resp
			rendered[resp.Member] = renderMember(&results[resp.Member], memberEncoders)
			return
		}
		line := resp // a copy, so only a streamed response goes to the heap
		e := renderMember(&line, lineEncoders)
		if e == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		_, _ = w.Write(e.buf.Bytes())
		e.release()
		if flusher != nil {
			flusher.Flush()
		}
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
	queries := make(map[queryKey]*moqo.Query)
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

	// One lane per query object, and a claimer takes the next lane and
	// serves it whole, most expensive member first: the first runs the
	// dynamic program, the rest answer from what it cached (re-weights and
	// cache hits, microseconds each), the same ones on every run. (Running
	// them side by side would be safe — a built query is only read — but
	// who leads would be a race.) Lanes are claimed in the order of their
	// most expensive member, so distinct dynamic programs run side by side
	// on the cores workerShare divides below, long ones start at once, and
	// overlapping leaders split their common subproblems: each is solved
	// once, by the first to reach it, and the other waits for it
	// (core.SharedMemo) instead of solving it again. No claimer waits for
	// another, and each renders a member as it finishes.
	plan := batchplan.New(len(runnable),
		func(k int) float64 { return members[runnable[k]].req.PredictedCost() },
		func(k int) *moqo.Query { return members[runnable[k]].req.Request().Query })

	parallel := min(s.clampWorkers(wire.Parallel), len(runnable))

	// The batch fans out across members, so a member's own dynamic program
	// gets its share of the cores, not all of them: the two levels of
	// parallelism do not multiply into more runnable threads than the
	// machine has, and a batch's latency does not hang on how many cores
	// happen to be idle. A lane is one claimer's, so at most one member
	// per lane is in flight.
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
	errs := 0
	for _, m := range results {
		if m.Error != "" {
			errs++
		}
	}
	hits, _, published := shared.Counters()
	s.writeBatch(w, rendered, BatchStatsResponse{
		Members:           len(members),
		Errors:            errs,
		SharedSubproblems: int(published),
		SharedHits:        hits,
		DurationMs:        float64(time.Since(started)) / float64(time.Millisecond),
	})
}

// renderMember renders resp with an encoder from pool: memberEncoders
// for writeBatch, lineEncoders for an NDJSON line. It returns nil when resp
// does not encode; otherwise the caller releases the encoder once its
// bytes are written.
func renderMember(resp *BatchMemberResponse, pool *sync.Pool) *jsonEncoder {
	e := pool.Get().(*jsonEncoder)
	if e.enc.Encode(resp) != nil {
		e.release()
		return nil
	}
	return e
}

// batchHead opens a BatchResponse body, up to its members array's bracket.
const batchHead = "{\n  \"members\": ["

// writeBatch answers a collected batch with the bytes writeJSON writes
// for the whole BatchResponse: members' renderings, in member order,
// spliced into the envelope that stats encodes to, in one Write — and no
// body when a member or stats did not encode. It releases the members'
// encoders.
func (s *Server) writeBatch(w http.ResponseWriter, members []*jsonEncoder, stats BatchStatsResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	defer func() {
		for _, e := range members {
			if e != nil {
				e.release()
			}
		}
	}()
	size := 0
	for _, e := range members {
		if e == nil {
			return
		}
		size += len(",\n    ") + e.buf.Len()
	}
	env := jsonEncoders.Get().(*jsonEncoder)
	defer env.release()
	if env.enc.Encode(&BatchResponse{Members: []BatchMemberResponse{}, Stats: stats}) != nil {
		return
	}
	// env reads {"members": [], "stats": ...}: the members go between the
	// brackets, each at its depth, without its encoder's newline.
	tail := env.buf.Bytes()[len(batchHead):]
	body := make([]byte, 0, len(batchHead)+size+len("\n  ")+len(tail))
	body = append(body, batchHead...)
	for k, e := range members {
		if k > 0 {
			body = append(body, ',')
		}
		frag := e.buf.Bytes()
		body = append(body, "\n    "...)
		body = append(body, frag[:len(frag)-1]...)
	}
	if len(members) > 0 {
		body = append(body, "\n  "...)
	}
	_, _ = w.Write(append(body, tail...))
}

// workerShare is the most workers one member's dynamic program gets when
// inFlight members of a batch run side by side on cpus cores.
func workerShare(cpus, inFlight int) int {
	if inFlight <= 1 {
		return cpus
	}
	return max(1, cpus/inFlight)
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"moqo"
	"moqo/internal/tenant"
)

// member is one request on its way through the lifecycle — a whole
// /optimize, or one member of a batch: what resolve built from the wire
// and serve needs to answer it.
type member struct {
	// req is the request after moqo's Resolve: validated, defaulted, its
	// algorithm decided, its keys built on first use.
	req      moqo.Resolved
	ten      string
	frontier bool // include the frontier in the response
	noCache  bool // bypass every tier
}

// failure is a member's classified error: the wire code a batch member
// carries, the HTTP status /optimize answers with, and the admission or
// shed reason and retry hint where there is one.
type failure struct {
	err        error
	code       string
	status     int
	reason     string
	retryAfter time.Duration
}

// resolve builds the member for one wire request, in this order so that a
// bad member reports its parsing problem before its quota one: tenant →
// catalog → query → knobs → clamp → Resolve → admission. cat is the
// batch's catalog (nil on /optimize, where the request names its own) and
// queries dedupes a batch's query objects (nil on /optimize). A non-nil
// failure means the member must not be served.
func (s *Server) resolve(m *member, wire *OptimizeRequest, tenantName string, cat *moqo.Catalog, queries map[string]*moqo.Query) *failure {
	err := s.build(m, wire, tenantName, cat, queries)
	if err != nil {
		s.errors.Add(1)
		return &failure{err: err, code: CodeValidation, status: http.StatusBadRequest}
	}
	// Admission: the tenant's table ceiling, predicted-cost ceiling and
	// request budget, checked before any optimization work — under the
	// algorithm that will run, not the one the wire spelled ("" and "auto"
	// with bounds are IRA).
	req := m.req.Request()
	if d := s.tenants.Admit(m.ten, len(req.Query.Relations), len(req.Objectives), m.req.Algorithm().String()); !d.OK {
		s.errors.Add(1)
		return &failure{err: d.Err, code: CodeAdmission, status: http.StatusTooManyRequests, reason: d.Reason, retryAfter: d.RetryAfter}
	}
	return nil
}

// build is resolve up to admission; every error it returns — the wire's
// or Resolve's — is a validation failure.
func (s *Server) build(m *member, wire *OptimizeRequest, tenantName string, cat *moqo.Catalog, queries map[string]*moqo.Query) (err error) {
	if m.ten, err = s.tenants.Resolve(tenantName); err != nil {
		return err
	}
	s.tenants.CountRequest(m.ten)
	m.frontier, m.noCache = wire.Frontier, wire.NoCache
	var req moqo.Request
	if req.Query, err = s.memberQuery(wire, cat, queries); err != nil {
		return err
	}
	if err = applyKnobs(&req, wire); err != nil {
		return err
	}
	req.Timeout = s.clampTimeout(wire.TimeoutMs)
	req.Workers = s.clampWorkers(wire.Workers)
	m.req, err = req.Resolve()
	return err
}

// catalogFor resolves a request's — or a whole batch's — catalog: the
// inline one, or TPC-H at the scale factor (default 1), with TPC-H query
// n over it when n is not 0 (otherwise the query is nil).
func (s *Server) catalogFor(spec *CatalogSpec, sf float64, n int) (*moqo.Catalog, *moqo.Query, error) {
	if spec != nil {
		cat, err := buildCatalog(spec)
		return cat, nil, err
	}
	if sf < 0 {
		return nil, nil, fmt.Errorf("scale_factor must be positive")
	}
	if sf == 0 {
		sf = 1
	}
	return s.tpch(sf, n)
}

// memberQuery resolves the request's query — a TPC-H number or an inline
// spec — against cat (nil: the request's own catalog). With a dedupe map,
// identical specs resolve to one query object: built once, and one lane of
// the batch schedule.
func (s *Server) memberQuery(wire *OptimizeRequest, cat *moqo.Catalog, queries map[string]*moqo.Query) (q *moqo.Query, err error) {
	switch {
	case wire.TPCH != 0 && (wire.Catalog != nil || wire.Query != nil):
		return nil, fmt.Errorf("tpch and an inline catalog or query are mutually exclusive")
	case wire.TPCH == 0 && wire.Query == nil:
		return nil, fmt.Errorf("either tpch or query is required")
	}
	if cat == nil {
		// A TPC-H request's query comes with its catalog, from one memo.
		if cat, q, err = s.catalogFor(wire.Catalog, wire.ScaleFactor, wire.TPCH); err != nil || q != nil {
			return q, err
		}
	}
	var key string
	if queries != nil {
		if wire.TPCH != 0 {
			key = "t:" + strconv.Itoa(wire.TPCH)
		} else {
			// Struct marshaling is deterministic, so equal specs dedupe to
			// one query object.
			raw, merr := json.Marshal(wire.Query)
			if merr != nil {
				return nil, merr
			}
			key = "q:" + string(raw)
		}
		if known, ok := queries[key]; ok {
			return known, nil
		}
	}
	if wire.TPCH != 0 {
		q, err = moqo.TPCHQuery(wire.TPCH, cat)
	} else {
		q, err = buildQuery(wire.Query, cat)
	}
	if err == nil && queries != nil {
		queries[key] = q
	}
	return q, err
}

// clampTimeout resolves a request's timeout_ms against the server limits.
func (s *Server) clampTimeout(ms int64) time.Duration {
	d := s.opts.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return min(d, s.opts.MaxTimeout)
}

// clampWorkers resolves a request's workers knob (or a batch's parallel);
// the cap keeps one request from oversubscribing the machine.
func (s *Server) clampWorkers(workers int) int {
	if workers <= 0 {
		workers = s.opts.DefaultWorkers
	}
	return min(workers, runtime.NumCPU())
}

// serve answers a resolved member: deadline budget → tiers → render (the
// frontier only if the member asked for it) → latency, or the failure's
// class.
//
// The member's wall budget starts at started — arrival for /optimize, its
// turn in the schedule for a batch member — and is carried by the context,
// so every wait downstream (the frontier tier's single-flight wait, the
// cold-DP scheduler queue, acquireCold) consumes it, and the dynamic
// program, which folds the context deadline into the §5.1 degrade path,
// gets exactly the remainder. A budget that dies while still queued
// surfaces as DeadlineExceeded and is shed. The budget is armed only when
// one of them first asks (see budget): a frontier hit never does.
func (s *Server) serve(ctx context.Context, m *member, started time.Time) (OptimizeResponse, *failure) {
	b := &budget{parent: ctx, deadline: started.Add(m.req.Request().Timeout)}
	defer b.release()
	res, err := s.tiers.Serve(b, &m.req, m.ten, m.noCache)
	if err != nil {
		return OptimizeResponse{}, s.serveFailure(err)
	}
	resp, err := toResponse(res, m.frontier)
	if err != nil {
		return OptimizeResponse{}, s.serveFailure(err)
	}
	ms := float64(time.Since(started)) / float64(time.Millisecond)
	s.latMu.Lock()
	s.latency.Record(ms)
	s.latMu.Unlock()
	s.tenants.RecordLatency(m.ten, ms)
	return resp, nil
}

// budget is a member's deadline budget as a context: the context
// context.WithDeadline(parent, deadline) returns, made the first time
// anything asks it anything. A frontier hit asks nothing — the tier's
// lookup, the SelectBest scan and the rendering never wait — so it arms no
// timer. Whatever can wait (the frontier tier's single-flight wait, the
// cold-DP queue, a dynamic program, a seeded IRA refinement) asks for Done
// or Err first, and from then on the one armed context answers every
// question under the same absolute deadline, so it expires and sheds
// exactly as one armed up front. A context derived from a budget finds the
// armed context through Value and links to it as to any cancelable
// parent, without a goroutine.
type budget struct {
	parent   context.Context
	deadline time.Time

	once   sync.Once
	ctx    context.Context
	cancel context.CancelFunc
}

// armed returns the budget's context, arming it on the first call.
func (b *budget) armed() context.Context {
	b.once.Do(func() { b.ctx, b.cancel = context.WithDeadline(b.parent, b.deadline) })
	return b.ctx
}

func (b *budget) Deadline() (time.Time, bool) { return b.armed().Deadline() }
func (b *budget) Done() <-chan struct{}       { return b.armed().Done() }
func (b *budget) Err() error                  { return b.armed().Err() }
func (b *budget) Value(key any) any           { return b.armed().Value(key) }

// release ends the budget, as the cancel function of context.WithDeadline
// does: an armed context is canceled, and an unarmed budget can no longer
// be armed — anything asking afterwards sees a canceled context.
func (b *budget) release() {
	b.once.Do(func() { b.ctx, b.cancel = canceled, func() {} })
	b.cancel()
}

// canceled is the context a budget released unarmed answers with.
var canceled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// serveFailure classifies — and counts — a failure after admission, in the
// tiers. Nothing a client wrote reaches it: resolve rejects every validation
// failure, so what is neither a shed, a contained panic nor the client
// leaving is the server's own fault.
func (s *Server) serveFailure(err error) *failure {
	s.errors.Add(1)
	switch {
	case errors.Is(err, tenant.ErrQueueFull):
		// Load shed: the scheduler queue is at its bound.
		s.shedOverload.Add(1)
		return &failure{err: err, code: CodeOverload, status: http.StatusServiceUnavailable, reason: "queue_full", retryAfter: time.Second}
	case errors.Is(err, moqo.ErrInternalPanic):
		// A contained worker panic fails only this request (the pool
		// survives — see internal/core); its text carries the stack, which
		// stays off the wire.
		s.panics.Add(1)
		return &failure{err: errors.New("internal: optimization aborted by a contained panic"), code: CodeInternal, status: http.StatusInternalServerError}
	case errors.Is(err, context.DeadlineExceeded):
		// Load shed: the deadline budget died while the request was queued
		// (a running dynamic program degrades at its deadline, it does not
		// fail). A request that never ran reports overload, not a timeout
		// of work it never did; the reason says which way it was shed.
		s.shedOverload.Add(1)
		return &failure{err: err, code: CodeOverload, status: http.StatusServiceUnavailable, reason: "budget_exhausted", retryAfter: time.Second}
	case errors.Is(err, context.Canceled):
		return &failure{err: err, code: CodeCanceled, status: http.StatusBadRequest}
	default:
		return &failure{err: err, code: CodeInternal, status: http.StatusInternalServerError}
	}
}

// writeFailure answers /optimize with a member's failure: its status, a
// Retry-After header when waiting would help (rate rejections and sheds),
// and the structured body — code, reason and retry hint exactly as a batch
// member carries them.
func (s *Server) writeFailure(w http.ResponseWriter, f *failure) {
	if f.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(max(1, int64(f.retryAfter.Seconds()+0.999)), 10))
	}
	s.writeJSON(w, f.status, ErrorResponse{Error: f.err.Error(), Code: f.code, Reason: f.reason, RetryAfterMs: f.retryAfter.Milliseconds()})
}

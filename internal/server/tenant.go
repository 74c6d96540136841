package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"moqo"
	"moqo/internal/tenant"
)

// TenantHeader is the HTTP header carrying the caller's tenant identity
// on /optimize and /optimize/batch (batch members may override it with
// their per-member tenant field). Absent or empty means the anonymous
// tenant.
const TenantHeader = "X-Moqo-Tenant"

// Machine-readable error codes on ErrorResponse.Code and
// BatchMemberResponse.ErrorCode, so clients dispatch on the class of a
// failure instead of parsing its message.
const (
	// CodeValidation: the request (or member) is malformed — fixing the
	// payload is the only remedy.
	CodeValidation = "validation"
	// CodeAdmission: the tenant's quota rejected the request (rate
	// budget, table ceiling, or predicted-cost ceiling). Rate rejections
	// carry retry_after_ms.
	CodeAdmission = "admission"
	// CodeTimeout: the serving deadline expired before an answer.
	CodeTimeout = "timeout"
	// CodeCanceled: the caller went away mid-flight.
	CodeCanceled = "canceled"
	// CodeInternal: an unexpected serving failure.
	CodeInternal = "internal"
	// CodeOverload: the server shed the request — the cold-DP queue is
	// at its load-shedding bound, or the request's deadline budget was
	// exhausted while it was still queued. Served as 503 + Retry-After;
	// the request did no optimization work.
	CodeOverload = "overload"
)

// resolveTenant canonicalizes the request's header identity: empty means
// the anonymous tenant, malformed names are rejected before any work.
func (s *Server) resolveTenant(r *http.Request) (string, error) {
	return s.tenants.Resolve(r.Header.Get(TenantHeader))
}

// writeAdmissionError renders a quota rejection: 429, a Retry-After hint
// when waiting would help (rate rejections), and a structured body with
// code "admission" plus the rejection reason.
func (s *Server) writeAdmissionError(w http.ResponseWriter, d tenant.Decision) {
	resp := ErrorResponse{
		Error:  d.Err.Error(),
		Code:   CodeAdmission,
		Reason: d.Reason,
	}
	if d.RetryAfter > 0 {
		resp.RetryAfterMs = d.RetryAfter.Milliseconds()
		secs := int64(d.RetryAfter.Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	s.errors.Add(1)
	s.writeJSON(w, http.StatusTooManyRequests, resp)
}

// acquireCold gates one cold dynamic program behind the fair scheduler:
// the tenant's admission queue is drained by smooth weighted round-robin
// at the tenant's configured weight, under its max_concurrent cap. Cache
// and frontier hits never reach this — they bypass queuing entirely, so
// tenancy adds nothing to the fast paths. In the FIFO baseline the
// request was already gated at the handler, so this is a no-op. The
// returned release must be called when the DP finishes.
func (s *Server) acquireCold(ctx context.Context, ten string) (func(), error) {
	if s.opts.FIFOScheduling {
		return func() {}, nil
	}
	q := s.tenants.Quota(ten)
	if err := s.sched.Acquire(ctx, ten, q.Weight, q.MaxConcurrent); err != nil {
		return nil, err
	}
	return func() { s.sched.Release(ten) }, nil
}

// gateRequest is the unfairness baseline's gate: under FIFOScheduling
// every request — cache hits included — waits in one global
// arrival-order queue for a slot. The fair policy gates nothing here
// (only cold DPs queue, at acquireCold). The returned release must be
// called when the request finishes.
func (s *Server) gateRequest(ctx context.Context, ten string) (func(), error) {
	if !s.opts.FIFOScheduling {
		return func() {}, nil
	}
	if err := s.sched.Acquire(ctx, ten, 1, 0); err != nil {
		return nil, err
	}
	return func() { s.sched.Release(ten) }, nil
}

// classifyServeError maps a serving failure to its wire error code: the
// member's deadline expired, the client went away, or something broke.
// Validation failures never reach this — they are rejected at build time.
func classifyServeError(err error) string {
	switch {
	case errors.Is(err, tenant.ErrQueueFull):
		return CodeOverload
	case errors.Is(err, moqo.ErrInternalPanic):
		return CodeInternal
	case errors.Is(err, context.DeadlineExceeded):
		return CodeTimeout
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	default:
		return CodeInternal
	}
}

// writeServeError answers a request that failed after admission — at the
// handler-level gate or while being served — with its structured code. A
// client that went away is counted and dropped: there is nobody to
// answer. Contained worker panics are a 500 that fails only this request
// (the pool survives — see internal/core), shed conditions a 503 +
// Retry-After, everything else a 400 with the message.
func (s *Server) writeServeError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil:
		s.errors.Add(1)
	case errors.Is(err, moqo.ErrInternalPanic):
		s.panics.Add(1)
		s.errors.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error: "internal: optimization aborted by a contained panic",
			Code:  CodeInternal,
		})
	case errors.Is(err, tenant.ErrQueueFull), errors.Is(err, context.DeadlineExceeded):
		// Load shed: the scheduler queue is at its bound, or the request's
		// deadline budget died while it was still queued.
		s.errors.Add(1)
		s.shedOverload.Add(1)
		reason := "queue_full"
		if errors.Is(err, context.DeadlineExceeded) {
			reason = "budget_exhausted"
		}
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:        err.Error(),
			Code:         CodeOverload,
			Reason:       reason,
			RetryAfterMs: time.Second.Milliseconds(),
		})
	default:
		s.writeError(w, http.StatusBadRequest, err)
	}
}

// respSizeBytes estimates an exact-tier entry's memory footprint for the
// per-tenant cache-partition accounting: the plan JSON dominates, plus
// the rendered frontier points and a fixed struct overhead. The estimate
// is computed identically at attribution and eviction time, so each
// tenant's gauge balances to zero when its entries leave.
func respSizeBytes(v OptimizeResponse) int64 {
	n := int64(len(v.Plan)) + 256
	for _, point := range v.Frontier {
		n += int64(len(point)) * 32
	}
	return n
}

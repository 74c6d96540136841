package server

import "context"

// TenantHeader is the HTTP header carrying the caller's tenant identity
// on /optimize and /optimize/batch (batch members may override it with
// their per-member tenant field). Absent or empty means the anonymous
// tenant.
const TenantHeader = "X-Moqo-Tenant"

// Machine-readable error codes on ErrorResponse.Code and
// BatchMemberResponse.ErrorCode, so clients dispatch on the class of a
// failure instead of parsing its message.
const (
	// CodeValidation: the request (or member) is malformed — the wire
	// could not be built into a request, or moqo.Request.Resolve refused
	// it. Raised before admission; fixing the payload is the only remedy.
	CodeValidation = "validation"
	// CodeAdmission: the tenant's quota rejected the request (rate
	// budget, table ceiling, or predicted-cost ceiling). Rate rejections
	// carry retry_after_ms.
	CodeAdmission = "admission"
	// CodeCanceled: the caller went away mid-flight.
	CodeCanceled = "canceled"
	// CodeInternal: an unexpected serving failure — the server's fault,
	// answered 500.
	CodeInternal = "internal"
	// CodeOverload: the server shed the request — the cold-DP queue is
	// at its load-shedding bound, or the request's deadline budget was
	// exhausted while it was still queued. Served as 503 + Retry-After;
	// the request did no optimization work.
	CodeOverload = "overload"
)

// acquireCold gates one cold dynamic program behind the fair scheduler:
// the tenant's admission queue is drained by smooth weighted round-robin
// at the tenant's configured weight, under its max_concurrent cap. Cache
// and frontier hits never reach this — they bypass queuing entirely, so
// tenancy adds nothing to the fast paths. It is the one place a request
// can queue. The returned release must be called when the DP finishes.
func (s *Server) acquireCold(ctx context.Context, ten string) (func(), error) {
	q := s.tenants.Quota(ten)
	if err := s.sched.Acquire(ctx, ten, q.Weight, q.MaxConcurrent); err != nil {
		return nil, err
	}
	return func() { s.sched.Release(ten) }, nil
}

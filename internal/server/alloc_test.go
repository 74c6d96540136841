package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// requestPathAllocBudget bounds the allocations of one frontier-served
// /optimize request: JSON decode of the request, building the query and the
// cache key, the SelectBest scan over the cached snapshot (allocation-free:
// pareto's TestSelectBestRowsZeroAlloc), a copy of the selected row's
// memoized plan JSON, and the JSON response encode. None of these terms
// grows with the frontier or with the dynamic program behind it, so the
// budget is a fixed count: 114 measured, with headroom for a Go release
// moving encoding/json or net/http by a few. (At 430, with 389 measured,
// it could not see that the scan allocated one slice per frontier row: a
// term that did grow with the frontier, under a comment that said O(1).)
const requestPathAllocBudget = 150

// TestRequestPathAllocs is the serving-path companion of the archive's
// TestArchiveInsertZeroAlloc CI gate: once a query shape's frontier is
// cached, a request for the same shape under new weights (request parse →
// exact-tier miss → frontier-tier hit → SelectBest → memoized plan JSON →
// response encode) must stay within the budget. Weights rotate every
// iteration so the exact tier always misses and the frontier tier always
// serves; the few frontier rows they select are each rendered once, so the
// plan JSON is a memo hit on all but those requests, as on a warm server
// (AllocsPerRun averages, and warms up with one run). The reweightServed counter
// proves the measured path is the fast path and not a silent cold
// optimization.
func TestRequestPathAllocs(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	do := func(weight float64) {
		req := httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(reweightRequest(weight)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	do(1) // cold run: populates the frontier tier
	if served := srv.tiers.reweightServed.Load(); served != 0 {
		t.Fatalf("cold request already served from frontier (%d)", served)
	}

	const runs = 50
	weight := 1.0
	avg := testing.AllocsPerRun(runs, func() {
		weight += 0.25 // distinct weights: exact tier misses, frontier tier hits
		do(weight)
	})
	if served := srv.tiers.reweightServed.Load(); served < runs {
		t.Fatalf("only %d of %d measured requests took the frontier fast path", served, runs)
	}
	t.Logf("frontier-served request: %.0f allocs (budget %d)", avg, requestPathAllocBudget)
	if avg > requestPathAllocBudget {
		t.Errorf("frontier-served request allocates %.0f objects, budget %d — the serving path regressed toward per-request DP work",
			avg, requestPathAllocBudget)
	}
}

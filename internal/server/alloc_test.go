package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// requestPathAllocBudget bounds the allocations of one frontier-served
// /optimize request: JSON decode of the request, building the query and the
// keys, the SelectBest scan over the cached snapshot (allocation-free:
// pareto's TestSelectBestRowsZeroAlloc), a copy of the selected row's
// memoized plan JSON, and the JSON response encode. None of these terms
// grows with the frontier or with the dynamic program behind it, so the
// budget is a fixed count: 94 measured on go1.24 for an exact repeat and a
// re-weight alike, with headroom for a Go release moving encoding/json or
// net/http by a few. (At 430, with 389 measured, it could
// not see that the scan allocated one slice per frontier row: a term that
// did grow with the frontier, under a comment that said O(1).)
const requestPathAllocBudget = 120

// TestRequestPathAllocs is the serving-path companion of the archive's
// TestArchiveInsertZeroAlloc CI gate: once a query shape's frontier is
// cached, a request for the same shape (request parse → frontier-tier hit →
// SelectBest → memoized plan JSON → response encode) must stay within the
// budget. Both ways a warm server sees such a request are measured: an
// exact repeat of the same body, and a re-weight whose weights rotate every
// iteration. The few frontier rows the re-weights select are each rendered
// once, so the plan JSON is a memo hit on all but those requests, as on a
// warm server (AllocsPerRun averages, and warms up with one run). The
// reweightServed counter proves the measured path is the fast path and not
// a silent cold optimization.
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
	for _, c := range []struct {
		name string
		next func()
	}{
		{"exact repeat", func() {}},
		{"re-weight", func() { weight += 0.25 }},
	} {
		before := srv.tiers.reweightServed.Load()
		avg := testing.AllocsPerRun(runs, func() {
			c.next()
			do(weight)
		})
		if served := srv.tiers.reweightServed.Load() - before; served < runs {
			t.Fatalf("%s: only %d of %d measured requests took the frontier fast path", c.name, served, runs)
		}
		t.Logf("%s: %.0f allocs (budget %d)", c.name, avg, requestPathAllocBudget)
		if avg > requestPathAllocBudget {
			t.Errorf("%s allocates %.0f objects, budget %d — the serving path regressed toward per-request DP work",
				c.name, avg, requestPathAllocBudget)
		}
	}
}

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

// storeHitAllocBudget bounds a request the disk store answers: the same
// terms, plus the store read, the snapshot decode (one entry array and one
// cost array for all its sections), one materialization of the frontier's
// trees (one slab of nodes, cached by slot) and a fresh rendering of the
// selected row, whose memo the decoded snapshot does not have. Each of
// these is a fixed number of allocations, whatever the frontier's or the
// sub-memo's size: 104 measured on go1.24 for the two shapes below. A term
// per frontier row, per sub-memo set or per plan does not fit in it: with
// such terms these requests took 433.
const storeHitAllocBudget = 130

// postOK serves one /optimize body on h and fails the test unless it
// answers 200.
func postOK(t *testing.T, h http.Handler, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

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
//
// The third way is a store hit: two shapes alternate over a frontier tier
// of one entry, so each request finds its shape on disk only.
func TestRequestPathAllocs(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	postOK(t, h, reweightRequest(1)) // cold run: populates the frontier tier
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
			postOK(t, h, reweightRequest(weight))
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

	t.Run("store hit", func(t *testing.T) {
		disk, err := NewE(Options{StorePath: t.TempDir(), StoreNoSync: true, FrontierCacheCapacity: 1, CacheShards: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer disk.Close()
		h := disk.Handler()
		shapes := []string{reweightRequest(1), q3Request}
		for _, body := range shapes {
			postOK(t, h, body) // cold runs: write both shapes through to the store
		}
		turn := 0
		before := disk.tiers.disk.Stats().Hits
		avg := testing.AllocsPerRun(runs, func() {
			postOK(t, h, shapes[turn%2])
			turn++
		})
		if hits := disk.tiers.disk.Stats().Hits - before; hits < runs {
			t.Fatalf("only %d of %d measured requests were store hits", hits, runs)
		}
		t.Logf("store hit: %.0f allocs (budget %d)", avg, storeHitAllocBudget)
		if avg > storeHitAllocBudget {
			t.Errorf("a store hit allocates %.0f objects, budget %d — decode or materialization allocates per row or per set again",
				avg, storeHitAllocBudget)
		}
	})
}

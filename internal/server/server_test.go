package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"moqo/internal/core"
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	ts, _ := newTestServerC(t, opts)
	return ts
}

// newTestServerC additionally returns a stop function that shuts the
// HTTP server and the service (frontier store included) down — for tests
// that restart a server mid-test; both are also stopped at cleanup
// (stopping twice is safe).
func newTestServerC(t *testing.T, opts Options) (*httptest.Server, func()) {
	t.Helper()
	svc, err := NewE(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	stop := func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}
	t.Cleanup(stop)
	return ts, stop
}

// post sends an optimize request and decodes the response (status, body).
func post(t *testing.T, ts *httptest.Server, body string) (int, OptimizeResponse, string) {
	t.Helper()
	res, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	var out OptimizeResponse
	if res.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decode response: %v\n%s", err, buf.String())
		}
	}
	return res.StatusCode, out, buf.String()
}

func metrics(t *testing.T, ts *httptest.Server) MetricsResponse {
	t.Helper()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

const q3Request = `{
	"tpch": 3,
	"alpha": 1.5,
	"objectives": ["total_time", "buffer_footprint", "tuple_loss"],
	"weights": {"total_time": 1}
}`

// TestOptimizeRoundTrip: a basic request returns a plan, costs for every
// requested objective, and sane stats.
func TestOptimizeRoundTrip(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, resp, raw := post(t, ts, q3Request)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Algorithm != "rta" {
		t.Errorf("algorithm = %q, want rta (the unbounded default)", resp.Algorithm)
	}
	if len(resp.Plan) == 0 {
		t.Error("no plan in response")
	}
	for _, o := range []string{"total_time", "buffer_footprint", "tuple_loss"} {
		if _, ok := resp.Cost[o]; !ok {
			t.Errorf("cost missing objective %s", o)
		}
	}
	if resp.Stats.Considered == 0 || resp.Stats.DurationMs <= 0 {
		t.Errorf("implausible stats: %+v", resp.Stats)
	}
	if resp.Cached {
		t.Error("first request reported cached")
	}
}

// TestCachedMatchesUncached: the same request served cold, from the cache,
// and with the cache bypassed must produce byte-identical plans and costs
// — cached results are real results.
func TestCachedMatchesUncached(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, cold, _ := post(t, ts, q3Request)
	_, warm, _ := post(t, ts, q3Request)
	_, bypass, _ := post(t, ts, `{"no_cache": true,`+q3Request[1:])

	if !warm.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if cold.Cached || bypass.Cached {
		t.Fatal("cold/bypass requests reported cached")
	}
	if !bytes.Equal(cold.Plan, warm.Plan) || !bytes.Equal(cold.Plan, bypass.Plan) {
		t.Error("plans differ between cold, cached and no_cache responses")
	}
	for o, c := range cold.Cost {
		if warm.Cost[o] != c || bypass.Cost[o] != c {
			t.Errorf("cost[%s] differs: cold=%v warm=%v bypass=%v", o, c, warm.Cost[o], bypass.Cost[o])
		}
	}
}

// TestRepeatedWorkloadHitRatio: a repeated-query workload (the paper's
// recurring multi-user scenario) must reach at least a 90% cache-hit
// ratio, with hits far faster to serve than the original optimizations.
func TestRepeatedWorkloadHitRatio(t *testing.T) {
	ts := newTestServer(t, Options{})
	// 5 weightings of one query shape, each repeated 20 times → one
	// frontier-tier miss (the shape's dynamic program) and 99 hits.
	for round := 0; round < 20; round++ {
		for variant := 0; variant < 5; variant++ {
			body := fmt.Sprintf(`{
				"tpch": 3,
				"alpha": 1.5,
				"objectives": ["total_time", "buffer_footprint", "tuple_loss"],
				"weights": {"total_time": 1, "buffer_footprint": %g}
			}`, float64(variant)/1024)
			if status, _, raw := post(t, ts, body); status != http.StatusOK {
				t.Fatalf("status %d: %s", status, raw)
			}
		}
	}
	m := metrics(t, ts)
	if m.FrontierCache.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one per distinct query shape)", m.FrontierCache.Misses)
	}
	if m.FrontierCache.HitRatio < 0.9 {
		t.Errorf("hit ratio = %.3f, want >= 0.90", m.FrontierCache.HitRatio)
	}
}

// TestConcurrentIdenticalRequests: a concurrent burst of one identical
// request must run the engine at most a handful of times (single-flight)
// and agree on the result. Run with -race.
func TestConcurrentIdenticalRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	const n = 24
	var wg sync.WaitGroup
	plans := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, raw := post(t, ts, q3Request)
			if status != http.StatusOK {
				t.Errorf("status %d: %s", status, raw)
				return
			}
			plans[i] = resp.Plan
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(plans[0], plans[i]) {
			t.Fatalf("request %d got a different plan", i)
		}
	}
	m := metrics(t, ts)
	if m.FrontierCache.Misses != 1 {
		t.Errorf("engine ran %d times for %d identical concurrent requests, want 1 (single-flight)",
			m.FrontierCache.Misses, n)
	}
}

// TestInlineCatalogQuery: an ad-hoc schema round-trips, and rebuilding the
// identical schema hits the cache (the fingerprint is structural, not
// pointer-based).
func TestInlineCatalogQuery(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := `{
		"catalog": {
			"tables": [
				{"name": "users", "rows": 100000, "width": 120, "pk": "id"},
				{"name": "events", "rows": 5000000, "width": 64, "pk": "eid"}
			],
			"indexes": [{"table": "events", "column": "user_id"}]
		},
		"query": {
			"name": "user-events",
			"relations": [
				{"table": "users", "filter_sel": 0.1},
				{"table": "events"}
			],
			"joins": [{"left": 0, "right": 1, "left_col": "id", "right_col": "user_id", "selectivity": 0.00001}]
		},
		"objectives": ["total_time", "energy"],
		"weights": {"total_time": 1, "energy": 0.5}
	}`
	status, first, raw := post(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if len(first.Plan) == 0 {
		t.Fatal("no plan")
	}
	_, second, _ := post(t, ts, body)
	if !second.Cached {
		t.Error("identical inline schema did not hit the cache")
	}
}

// TestValidation: malformed requests get 400s with a JSON error, and never
// crash the handler.
func TestValidation(t *testing.T) {
	ts := newTestServer(t, Options{})
	bad := map[string]string{
		"empty":              `{}`,
		"no objectives":      `{"tpch": 3}`,
		"unknown objective":  `{"tpch": 3, "objectives": ["latency"]}`,
		"unknown algorithm":  `{"tpch": 3, "objectives": ["total_time"], "algorithm": "magic"}`,
		"bad tpch number":    `{"tpch": 77, "objectives": ["total_time"]}`,
		"weight off-set":     `{"tpch": 3, "objectives": ["total_time"], "weights": {"energy": 1}}`,
		"bounds with rta":    `{"tpch": 3, "algorithm": "rta", "objectives": ["total_time"], "bounds": {"total_time": 1}}`,
		"tpch plus inline":   `{"tpch": 3, "catalog": {"tables": [{"name": "t", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "t"}]}, "objectives": ["total_time"]}`,
		"unknown field":      `{"tpch": 3, "objectives": ["total_time"], "wat": 1}`,
		"bad json":           `{`,
		"catalog no query":   `{"catalog": {"tables": [{"name": "t", "rows": 1, "width": 8}]}, "objectives": ["total_time"]}`,
		"unknown table":      `{"catalog": {"tables": [{"name": "t", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "nope"}]}, "objectives": ["total_time"]}`,
		"bad selectivity":    `{"catalog": {"tables": [{"name": "a", "rows": 1, "width": 8}, {"name": "b", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "a"}, {"table": "b"}], "joins": [{"left": 0, "right": 1, "left_col": "x", "right_col": "y", "selectivity": 4}]}, "objectives": ["total_time"]}`,
		"self join edge":     `{"catalog": {"tables": [{"name": "a", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "a"}], "joins": [{"left": 0, "right": 0, "left_col": "x", "right_col": "y", "selectivity": 0.5}]}, "objectives": ["total_time"]}`,
		"duplicate alias":    `{"catalog": {"tables": [{"name": "a", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "a"}, {"table": "a"}]}, "objectives": ["total_time"]}`,
		"disconnected graph": `{"catalog": {"tables": [{"name": "a", "rows": 1, "width": 8}, {"name": "b", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "a"}, {"table": "b"}]}, "objectives": ["total_time"]}`,
	}
	for name, body := range bad {
		status, _, raw := post(t, ts, body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, raw)
		}
		var e ErrorResponse
		if err := json.Unmarshal([]byte(raw), &e); err != nil || e.Error == "" {
			t.Errorf("%s: response is not a JSON error: %s", name, raw)
		}
	}
	if m := metrics(t, ts); m.Requests.Errors == 0 {
		t.Error("error counter not incremented")
	}
}

// TestUnknownObjectiveErrorIsStable: a body naming two unknown objectives
// in weights, bounds or precisions gets the same 400 text every time — the
// first unknown name in sorted order — not whichever the map ranged to
// first.
func TestUnknownObjectiveErrorIsStable(t *testing.T) {
	h := New(Options{}).Handler()
	for _, field := range []string{"weights", "bounds", "precisions"} {
		body := `{"tpch": 3, "algorithm": "exa", "objectives": ["total_time"], "` + field + `": {"zeta": 1, "alpha": 2, "total_time": 1}}`
		want := field + `: unknown objective "alpha"`
		for i := 0; i < 50; i++ {
			req := httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: status %d, body %s", field, rec.Code, rec.Body)
			}
			if e.Error != want {
				t.Fatalf("%s, try %d: error %q, want %q", field, i, e.Error, want)
			}
		}
	}
}

// TestMethodNotAllowed: GET /optimize and POST /metrics are rejected.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Options{})
	res, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize: %d", res.StatusCode)
	}
	res, err = http.Post(ts.URL+"/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: %d", res.StatusCode)
	}
}

// TestPerRequestTimeoutDegrades: a tiny timeout_ms on an expensive request
// degrades (stats.timed_out) instead of erroring, and the degraded result
// is NOT cached — the next request with a generous deadline gets a full
// result.
func TestPerRequestTimeoutDegrades(t *testing.T) {
	ts := newTestServer(t, Options{})
	// TPC-H q8 joins 8 relations with all nine objectives — far more than
	// 1ms of work.
	expensive := func(timeoutMs int) string {
		return fmt.Sprintf(`{
			"tpch": 8, "timeout_ms": %d, "algorithm": "exa",
			"objectives": ["total_time", "startup_time", "io_load", "cpu_load", "cores",
			               "disk_footprint", "buffer_footprint", "energy", "tuple_loss"],
			"weights": {"total_time": 1}
		}`, timeoutMs)
	}
	status, degraded, raw := post(t, ts, expensive(1))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !degraded.Stats.TimedOut {
		t.Skip("machine too fast to observe the 1ms timeout")
	}
	// A degraded result must not enter the frontier tier (no snapshot — a
	// truncated frontier must never serve a repeat or a re-weight).
	m := metrics(t, ts)
	if m.FrontierCache.Entries != 0 {
		t.Errorf("degraded frontier entered the frontier tier (%d entries)", m.FrontierCache.Entries)
	}
	if m.FrontierCache.SnapshotBytes != 0 {
		t.Errorf("degraded run left %d snapshot bytes in the gauge", m.FrontierCache.SnapshotBytes)
	}
	// A re-weighted request (same FrontierKey, different weights) must
	// not be served from a degraded frontier either.
	reweighted := strings.Replace(expensive(1), `"weights": {"total_time": 1}`, `"weights": {"total_time": 2}`, 1)
	status, re, raw := post(t, ts, reweighted)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if re.Stats.ReusedFrontier {
		t.Error("re-weight was served from a degraded frontier")
	}
	// The second run may time out too (2s); what matters is that it was
	// computed fresh rather than served the degraded cache entry.
	status, full, raw := post(t, ts, expensive(2000))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if full.Cached {
		t.Error("degraded result was cached and served to a later request")
	}
}

// TestFrontierToggle: the frontier appears only when requested, and the
// toggle does not fragment the cache.
func TestFrontierToggle(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, plain, _ := post(t, ts, q3Request)
	if len(plain.Frontier) != 0 {
		t.Error("frontier present without being requested")
	}
	_, withFrontier, _ := post(t, ts, `{"frontier": true,`+q3Request[1:])
	if len(withFrontier.Frontier) == 0 {
		t.Error("frontier missing")
	}
	if !withFrontier.Cached {
		t.Error("frontier toggle caused a cache miss")
	}
}

// reweightRequest renders a q8 RTA request with the given total_time
// weight — all such requests share a FrontierKey and differ in CacheKey.
func reweightRequest(weight float64) string {
	return fmt.Sprintf(`{
		"tpch": 8, "alpha": 1.5, "algorithm": "rta",
		"objectives": ["total_time", "buffer_footprint", "energy"],
		"weights": {"total_time": %g, "energy": 0.3}
	}`, weight)
}

// TestReweightServedFromFrontier: a weight change on a cached query
// shape is answered from the frontier tier (stats.reused_frontier)
// without a new optimization, and the per-tier metrics account for it.
func TestReweightServedFromFrontier(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, cold, raw := post(t, ts, reweightRequest(1))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if cold.Stats.ReusedFrontier || cold.Cached {
		t.Fatal("first request cannot be served from a cache")
	}

	status, warm, raw := post(t, ts, reweightRequest(2))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !warm.Stats.ReusedFrontier {
		t.Fatal("re-weight was not served from the frontier tier")
	}
	if !warm.Cached {
		t.Error("re-weight derived from a cached snapshot did not report cached")
	}
	// The reused answer is a real answer: compare against an uncached
	// cold run at the same weights.
	status, fresh, raw := post(t, ts, `{"no_cache": true,`+reweightRequest(2)[1:])
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !bytes.Equal(warm.Plan, fresh.Plan) {
		t.Errorf("frontier-served plan differs from a cold run:\n%s\nvs\n%s", warm.Plan, fresh.Plan)
	}
	for k, v := range fresh.Cost {
		if warm.Cost[k] != v {
			t.Errorf("frontier-served cost[%s] = %v, cold %v", k, warm.Cost[k], v)
		}
	}

	m := metrics(t, ts)
	if !m.FrontierCache.Enabled {
		t.Fatal("frontier tier not enabled by default")
	}
	if m.FrontierCache.Entries != 1 {
		t.Errorf("frontier tier entries=%d, want 1", m.FrontierCache.Entries)
	}
	if m.FrontierCache.Misses != 1 {
		t.Errorf("frontier tier misses=%d, want 1", m.FrontierCache.Misses)
	}
	if m.FrontierCache.Hits != 1 {
		t.Errorf("frontier tier hits=%d, want 1", m.FrontierCache.Hits)
	}
	if m.FrontierCache.ReweightServed != 1 {
		t.Errorf("reweight_served=%d, want 1", m.FrontierCache.ReweightServed)
	}
	if m.FrontierCache.SnapshotBytes <= 0 {
		t.Errorf("snapshot_bytes=%d, want > 0", m.FrontierCache.SnapshotBytes)
	}

	// Exact repeat of the re-weight: the frontier tier answers it again.
	status, again, _ := post(t, ts, reweightRequest(2))
	if status != http.StatusOK {
		t.Fatal("repeat failed")
	}
	if !again.Cached || !again.Stats.ReusedFrontier {
		t.Error("exact repeat was not served from the frontier tier")
	}
}

// aliasRequest renders one inline two-table shape whose relations are named
// prefix1 and prefix2, under the given energy weight. The names are in the
// plan JSON and not in either key, so every such request shares a
// FrontierKey, and two with equal weights share a CacheKey.
func aliasRequest(prefix string, energy float64) string {
	return aliasShape(prefix, energy, `"algorithm": "exa"`)
}

// boundedAliasRequest is aliasRequest's shape as a bounded IRA request,
// whose frontier-tier hits go through the seeded refinement.
func boundedAliasRequest(prefix string, energy float64) string {
	return aliasShape(prefix, energy, `"algorithm": "ira", "alpha": 1.5, "bounds": {"total_time": 1e12}`)
}

// aliasShape renders the alias shape under the given algorithm knobs.
func aliasShape(prefix string, energy float64, knobs string) string {
	return fmt.Sprintf(`{
		"catalog": {
			"tables": [
				{"name": "users", "rows": 100000, "width": 120, "pk": "id"},
				{"name": "events", "rows": 5000000, "width": 64, "pk": "eid"}
			],
			"indexes": [{"table": "events", "column": "user_id"}]
		},
		"query": {
			"relations": [
				{"table": "users", "alias": "%[1]s1", "filter_sel": 0.1},
				{"table": "events", "alias": "%[1]s2"}
			],
			"joins": [{"left": 0, "right": 1, "left_col": "id", "right_col": "user_id", "selectivity": 0.00001}]
		},
		%[3]s,
		"objectives": ["total_time", "energy"],
		"weights": {"total_time": 1, "energy": %[2]g}
	}`, prefix, energy, knobs)
}

// TestReweightKeepsRequestAliases: the frontier tier answers a re-weight
// with the requester's relation names, not those of the request that filled
// the tier or of the one that last rendered the selected frontier row.
func TestReweightKeepsRequestAliases(t *testing.T) {
	ts := newTestServer(t, Options{})
	if status, _, raw := post(t, ts, aliasRequest("x", 0.5)); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	// Twice: the second x re-weight finds the row rendered for y.
	for i, prefix := range []string{"y", "x", "y"} {
		status, resp, raw := post(t, ts, aliasRequest(prefix, 0.6+float64(i)/1e6))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		if !resp.Stats.ReusedFrontier || !resp.Cached {
			t.Fatalf("request %d (%s): reused_frontier %v, cached %v; want a re-weight", i, prefix, resp.Stats.ReusedFrontier, resp.Cached)
		}
		other := map[string]string{"x": "y", "y": "x"}[prefix]
		for _, n := range []string{"1", "2"} {
			if !bytes.Contains(resp.Plan, []byte(`"`+prefix+n+`"`)) || bytes.Contains(resp.Plan, []byte(`"`+other+n+`"`)) {
				t.Errorf("request %d wrote %s1,%s2; its plan names other relations:\n%s", i, prefix, prefix, resp.Plan)
			}
		}
	}
}

// TestExactRepeatKeepsRequestAliases: requests that differ only in their
// relation aliases share both keys, so a repeat under identical weights is
// an exact repeat of another requester's request. It is answered from the
// stored frontier, cached, and with the requester's own names — on an EXA
// shape and on a bounded IRA one, whose hits take the seeded path.
func TestExactRepeatKeepsRequestAliases(t *testing.T) {
	for name, body := range map[string]func(string, float64) string{"exa": aliasRequest, "bounded ira": boundedAliasRequest} {
		t.Run(name, func(t *testing.T) {
			ts := newTestServer(t, Options{})
			for i, prefix := range []string{"x", "y", "x"} {
				status, resp, raw := post(t, ts, body(prefix, 0.5))
				if status != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, status, raw)
				}
				if repeat := i > 0; resp.Cached != repeat {
					t.Errorf("request %d (%s): cached %v, want %v", i, prefix, resp.Cached, repeat)
				}
				other := map[string]string{"x": "y", "y": "x"}[prefix]
				for _, n := range []string{"1", "2"} {
					if !bytes.Contains(resp.Plan, []byte(`"`+prefix+n+`"`)) || bytes.Contains(resp.Plan, []byte(`"`+other+n+`"`)) {
						t.Errorf("request %d wrote %s1,%s2; its plan names other relations:\n%s", i, prefix, prefix, resp.Plan)
					}
				}
			}
		})
	}
}

// TestOneMemoryTierPerRequest: the resolved algorithm picks how a request is
// served. A repeated baseline runs cold each time and leaves the frontier
// tier alone; a bounded IRA exact repeat is answered from its snapshot
// without a dynamic program; and the exact-result cache metrics read zero.
func TestOneMemoryTierPerRequest(t *testing.T) {
	t.Run("baseline", func(t *testing.T) {
		ts := newTestServer(t, Options{})
		before, runs := metrics(t, ts), core.EngineRuns()
		body := `{"tpch": 3, "algorithm": "selinger", "objectives": ["total_time"]}`
		for i := 0; i < 2; i++ {
			if status, resp, raw := post(t, ts, body); status != http.StatusOK || resp.Cached {
				t.Fatalf("request %d: status %d, cached %v: %s", i, status, resp.Cached, raw)
			}
		}
		if ran := core.EngineRuns() - runs; ran != 2 {
			t.Errorf("two baseline requests ran %d dynamic programs, want 2", ran)
		}
		if m := metrics(t, ts); m.FrontierCache != before.FrontierCache {
			t.Errorf("a baseline moved the frontier tier: %+v, was %+v", m.FrontierCache, before.FrontierCache)
		}
	})
	t.Run("reusable frontier", func(t *testing.T) {
		ts := newTestServer(t, Options{})
		for _, body := range []string{q3Request, q3Request, reweightRequest(1), reweightRequest(2), iraRequest(1), aliasRequest("x", 0.5), boundedAliasRequest("x", 0.5)} {
			if status, _, raw := post(t, ts, body); status != http.StatusOK {
				t.Fatalf("status %d: %s", status, raw)
			}
		}
		runs := core.EngineRuns()
		status, resp, raw := post(t, ts, boundedAliasRequest("x", 0.5))
		if status != http.StatusOK || !resp.Cached {
			t.Fatalf("bounded IRA exact repeat: status %d, cached %v: %s", status, resp.Cached, raw)
		}
		if ran := core.EngineRuns() - runs; ran != 0 {
			t.Errorf("bounded IRA exact repeat ran %d dynamic programs, want 0", ran)
		}
		if m := metrics(t, ts); m.Cache != (CacheMetrics{}) {
			t.Errorf("the exact-result cache metrics moved: %+v", m.Cache)
		}
	})
}

// TestFrontierSingleFlightUnderConcurrentReweights: concurrent requests
// for one query shape under DISTINCT weights coalesce on the frontier
// tier — the optimizer runs the cold DP once, every other request is
// served by a frontier scan (or coalesces onto the in-flight DP).
func TestFrontierSingleFlightUnderConcurrentReweights(t *testing.T) {
	ts := newTestServer(t, Options{})
	const n = 8
	var wg sync.WaitGroup
	responses := make([]OptimizeResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp, raw := post(t, ts, reweightRequest(float64(i+1)))
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", status, raw)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	m := metrics(t, ts)
	// Distinct weights -> distinct CacheKeys, one shared FrontierKey: the
	// cold DP must have run exactly once.
	if m.FrontierCache.Misses != 1 {
		t.Fatalf("frontier tier misses=%d, want 1 (single flight broken)", m.FrontierCache.Misses)
	}
	if got := m.FrontierCache.Hits + m.FrontierCache.Coalesced; got != n-1 {
		t.Errorf("frontier hits+coalesced=%d, want %d", got, n-1)
	}
	if m.FrontierCache.ReweightServed != n-1 {
		t.Errorf("reweight_served=%d, want %d", m.FrontierCache.ReweightServed, n-1)
	}
	reused := 0
	for _, resp := range responses {
		if resp.Stats.ReusedFrontier {
			reused++
		}
	}
	if reused != n-1 {
		t.Errorf("%d responses flagged reused_frontier, want %d", reused, n-1)
	}
}

// TestFrontierTierDisabled: a negative FrontierCacheCapacity turns the
// tier off, and with it all caching — re-weights and exact repeats
// recompute, metrics stay disabled.
func TestFrontierTierDisabled(t *testing.T) {
	ts := newTestServer(t, Options{FrontierCacheCapacity: -1})
	post(t, ts, reweightRequest(1))
	_, warm, _ := post(t, ts, reweightRequest(2))
	if warm.Stats.ReusedFrontier {
		t.Error("re-weight served from a disabled frontier tier")
	}
	runs := core.EngineRuns()
	_, again, _ := post(t, ts, reweightRequest(2))
	if again.Cached || again.Stats.ReusedFrontier {
		t.Error("exact repeat served from a cache with the frontier tier disabled")
	}
	if core.EngineRuns() == runs {
		t.Error("exact repeat ran no dynamic program with the frontier tier disabled")
	}
	m := metrics(t, ts)
	if m.FrontierCache.Enabled {
		t.Error("frontier tier reported enabled")
	}
}

// TestHealthz: liveness.
func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Options{})
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", res.StatusCode)
	}
}

// TestCacheDisabled: a negative CacheCapacity disables caching entirely;
// everything still works, nothing reports cached.
func TestCacheDisabled(t *testing.T) {
	ts := newTestServer(t, Options{CacheCapacity: -1})
	for i := 0; i < 2; i++ {
		status, resp, raw := post(t, ts, q3Request)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, raw)
		}
		if resp.Cached {
			t.Error("cached response from a cache-disabled server")
		}
	}
	if m := metrics(t, ts); m.Cache.Enabled || m.FrontierCache.Enabled {
		t.Error("metrics report an enabled cache")
	}
}

// TestMetricsLatency: the latency window fills and reports ordered
// percentiles.
func TestMetricsLatency(t *testing.T) {
	ts := newTestServer(t, Options{})
	for i := 0; i < 5; i++ {
		post(t, ts, q3Request)
	}
	m := metrics(t, ts)
	if m.Latency.Window != 5 {
		t.Errorf("latency window = %d, want 5", m.Latency.Window)
	}
	if m.Latency.P50 <= 0 || m.Latency.P99 < m.Latency.P50 {
		t.Errorf("implausible percentiles: %+v", m.Latency)
	}
	if m.Requests.Optimize != 5 {
		t.Errorf("optimize counter = %d, want 5", m.Requests.Optimize)
	}
	if time.Duration(m.UptimeMs*float64(time.Millisecond)) <= 0 {
		t.Error("no uptime")
	}
}

// TestOptimizeEnumerationKnob: the enumeration-work counters are on the
// wire, and the strategy is not — it is derived from the join graph, so a
// request that names one carries an unknown field.
func TestOptimizeEnumerationKnob(t *testing.T) {
	ts := newTestServer(t, Options{CacheCapacity: -1})

	status, resp, _ := post(t, ts, `{"tpch": 3, "objectives": ["total_time"]}`)
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if resp.Stats.EnumSets == 0 || resp.Stats.EnumSplits == 0 {
		t.Errorf("enumeration counters missing from stats: sets=%d splits=%d",
			resp.Stats.EnumSets, resp.Stats.EnumSplits)
	}

	status, _, errBody := post(t, ts, `{"tpch": 3, "objectives": ["total_time"], "enumeration": "graph"}`)
	if status != 400 || !strings.Contains(errBody, "enumeration") {
		t.Errorf("enumeration field: status %d, body %q", status, errBody)
	}
}

// storeOpts enables the disk-backed frontier store on dir. NoSync keeps
// the tests fast; crash consistency has its own tests in internal/store.
func storeOpts(dir string) Options {
	return Options{StorePath: dir, StoreNoSync: true}
}

// sameAnswer asserts two responses carry the identical plan and costs.
func sameAnswer(t *testing.T, label string, want, got OptimizeResponse) {
	t.Helper()
	if !bytes.Equal(want.Plan, got.Plan) {
		t.Errorf("%s: plans differ:\n%s\nvs\n%s", label, want.Plan, got.Plan)
	}
	if len(got.Cost) != len(want.Cost) {
		t.Errorf("%s: cost maps differ: %v vs %v", label, want.Cost, got.Cost)
	}
	for o, c := range want.Cost {
		if got.Cost[o] != c {
			t.Errorf("%s: cost[%s] = %v, want %v", label, o, got.Cost[o], c)
		}
	}
}

// TestWarmRestartServesFromStore: a server restarted on the same store
// directory answers a known query shape from disk — no dynamic program,
// bit-for-bit the original answer (plan, costs, frontier) — and further
// re-weights on the disk-loaded snapshot keep matching cold runs.
func TestWarmRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	withFrontier := `{"frontier": true,` + reweightRequest(1)[1:]

	tsA, stopA := newTestServerC(t, storeOpts(dir))
	status, cold, raw := post(t, tsA, withFrontier)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if cold.Stats.ReusedFrontier {
		t.Fatal("first request cannot reuse a frontier")
	}
	mA := metrics(t, tsA)
	if !mA.FrontierStore.Enabled {
		t.Fatal("frontier store not enabled")
	}
	if mA.FrontierStore.Writes != 1 {
		t.Errorf("store writes=%d, want 1 (write-through on DP completion)", mA.FrontierStore.Writes)
	}
	if mA.FrontierStore.Entries != 1 {
		t.Errorf("store entries=%d, want 1", mA.FrontierStore.Entries)
	}
	if mA.FrontierStore.Bytes <= 0 {
		t.Errorf("store bytes=%d, want > 0", mA.FrontierStore.Bytes)
	}
	stopA()

	// Restart: fresh process state, same directory.
	tsB, _ := newTestServerC(t, storeOpts(dir))
	status, warm, raw := post(t, tsB, withFrontier)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !warm.Stats.ReusedFrontier {
		t.Fatal("restarted server re-ran the dynamic program instead of serving from disk")
	}
	if !warm.Cached {
		t.Error("answer derived from the stored snapshot did not report cached")
	}
	sameAnswer(t, "warm restart", cold, warm)
	if len(warm.Frontier) != len(cold.Frontier) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(warm.Frontier), len(cold.Frontier))
	}
	for i := range cold.Frontier {
		for o, v := range cold.Frontier[i] {
			if warm.Frontier[i][o] != v {
				t.Errorf("frontier[%d][%s] = %v, want %v", i, o, warm.Frontier[i][o], v)
			}
		}
	}

	// A re-weight on the disk-loaded snapshot still matches a cold run.
	status, re, raw := post(t, tsB, reweightRequest(2))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !re.Stats.ReusedFrontier {
		t.Error("re-weight after restart not served from the frontier tier")
	}
	status, fresh, raw := post(t, tsB, `{"no_cache": true,`+reweightRequest(2)[1:])
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	sameAnswer(t, "re-weight after restart", fresh, re)

	mB := metrics(t, tsB)
	if mB.FrontierStore.Hits != 1 {
		t.Errorf("store hits=%d, want 1", mB.FrontierStore.Hits)
	}
	if mB.FrontierStore.Misses != 0 {
		t.Errorf("store misses=%d, want 0", mB.FrontierStore.Misses)
	}
	if mB.FrontierStore.CorruptDropped != 0 {
		t.Errorf("store corrupt_dropped=%d, want 0", mB.FrontierStore.CorruptDropped)
	}
	if mB.FrontierCache.Misses != 1 {
		t.Errorf("frontier tier misses=%d, want 1 (the memory miss that went to disk)", mB.FrontierCache.Misses)
	}
	if mB.FrontierCache.ReweightServed != 2 {
		t.Errorf("reweight_served=%d, want 2", mB.FrontierCache.ReweightServed)
	}
}

// iraRequest renders a bounded q8 IRA request — the algorithm whose
// snapshot reuse seeds a refinement loop rather than a pure scan.
func iraRequest(weight float64) string {
	return fmt.Sprintf(`{
		"tpch": 8, "alpha": 1.5, "algorithm": "ira",
		"objectives": ["total_time", "buffer_footprint", "energy"],
		"weights": {"total_time": %g, "energy": 0.3},
		"bounds": {"buffer_footprint": 1e12}
	}`, weight)
}

// TestWarmRestartSeedsIRA: IRA's restart path goes through the seeded
// refinement (moqo.ReoptimizeContext with an IRA snapshot), which must
// still answer bit-for-bit like a cold IRA run at the same weights.
func TestWarmRestartSeedsIRA(t *testing.T) {
	dir := t.TempDir()
	tsA, stopA := newTestServerC(t, storeOpts(dir))
	status, cold, raw := post(t, tsA, iraRequest(1))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	stopA()

	tsB, _ := newTestServerC(t, storeOpts(dir))
	status, warm, raw := post(t, tsB, iraRequest(1))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !warm.Stats.ReusedFrontier {
		t.Fatal("restarted server did not seed IRA from the disk store")
	}
	sameAnswer(t, "seeded IRA restart", cold, warm)
	// And against a fully cold, cache-bypassing run at the same weights.
	status, fresh, raw := post(t, tsB, `{"no_cache": true,`+iraRequest(1)[1:])
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	sameAnswer(t, "seeded IRA vs cold", fresh, warm)
	if m := metrics(t, tsB); m.FrontierStore.Hits != 1 {
		t.Errorf("store hits=%d, want 1", m.FrontierStore.Hits)
	}
}

// inlineStoreRequest renders an inline-catalog request; the catalog's
// tables and indexes are injected so tests can "mutate" the catalog
// between restarts the way a live one mutates via AddTable/AddIndex.
func inlineStoreRequest(tables, indexes string) string {
	return fmt.Sprintf(`{
		"catalog": {"tables": %s, "indexes": %s},
		"query": {
			"name": "user-events",
			"relations": [{"table": "users", "filter_sel": 0.1}, {"table": "events"}],
			"joins": [{"left": 0, "right": 1, "left_col": "id", "right_col": "user_id", "selectivity": 0.00001}]
		},
		"algorithm": "rta", "alpha": 1.5,
		"objectives": ["total_time", "energy"],
		"weights": {"total_time": 1, "energy": 0.5}
	}`, tables, indexes)
}

// TestCatalogChangeInvalidatesStoreEntries: the FrontierKey embeds the
// catalog's content fingerprint, so a catalog that gained a table or an
// index after the snapshot was persisted never sees the stale entry —
// the store is consulted under the new key and misses; the unchanged
// catalog still hits its entry.
func TestCatalogChangeInvalidatesStoreEntries(t *testing.T) {
	const baseTables = `[
		{"name": "users", "rows": 100000, "width": 120, "pk": "id"},
		{"name": "events", "rows": 5000000, "width": 64, "pk": "eid"}
	]`
	const baseIndexes = `[{"table": "events", "column": "user_id"}]`

	dir := t.TempDir()
	tsA, stopA := newTestServerC(t, storeOpts(dir))
	status, _, raw := post(t, tsA, inlineStoreRequest(baseTables, baseIndexes))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	stopA()

	tsB, _ := newTestServerC(t, storeOpts(dir))
	mutations := map[string]string{
		"AddIndex": inlineStoreRequest(baseTables,
			`[{"table": "events", "column": "user_id"}, {"table": "users", "column": "name"}]`),
		"AddTable": inlineStoreRequest(`[
			{"name": "users", "rows": 100000, "width": 120, "pk": "id"},
			{"name": "events", "rows": 5000000, "width": 64, "pk": "eid"},
			{"name": "audit", "rows": 1000, "width": 32, "pk": "aid"}
		]`, baseIndexes),
	}
	for name, body := range mutations {
		status, resp, raw := post(t, tsB, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, raw)
		}
		if resp.Stats.ReusedFrontier {
			t.Errorf("%s: stale snapshot served after the catalog changed", name)
		}
	}
	m := metrics(t, tsB)
	if m.FrontierStore.Hits != 0 {
		t.Errorf("store hits=%d, want 0 (mutated catalogs must never hit)", m.FrontierStore.Hits)
	}
	if m.FrontierStore.Misses != uint64(len(mutations)) {
		t.Errorf("store misses=%d, want %d", m.FrontierStore.Misses, len(mutations))
	}

	// Control: the unchanged catalog still finds its snapshot on disk.
	status, same, raw := post(t, tsB, inlineStoreRequest(baseTables, baseIndexes))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !same.Stats.ReusedFrontier {
		t.Error("unchanged catalog no longer served from the disk store")
	}
	if m := metrics(t, tsB); m.FrontierStore.Hits != 1 {
		t.Errorf("store hits=%d, want 1 (the unchanged catalog)", m.FrontierStore.Hits)
	}
}

// TestMemoryEvictionTouchesStore: a frontier-tier capacity eviction
// tells the store "in use until now" and writes nothing. With a memory
// tier of one entry, every new shape evicts its predecessor: the store's
// write count moves only with write-throughs, the evicted shape is still
// a store hit, and — under a disk budget that holds two of the three
// snapshots — the store sheds the shape memory gave up first, not the one
// it was still holding a request ago.
func TestMemoryEvictionTouchesStore(t *testing.T) {
	shape := func(i int, w float64) string {
		return chainBody(5, 0.2+0.2*float64(i), "rta", map[string]float64{"total_time": 1, "buffer_footprint": w})
	}
	run := func(maxBytes int64) (*httptest.Server, int64) {
		opts := storeOpts(t.TempDir())
		opts.CacheShards, opts.FrontierCacheCapacity, opts.StoreMaxBytes = 1, 1, maxBytes
		ts := newTestServer(t, opts)
		for i := 0; i < 3; i++ { // a, b, c: each arrival evicts its predecessor from memory
			if status, _, raw := post(t, ts, shape(i, 0)); status != http.StatusOK {
				t.Fatalf("shape %d: status %d: %s", i, status, raw)
			}
		}
		m := metrics(t, ts)
		if m.FrontierCache.Evictions != 2 || m.FrontierStore.Writes != 3 {
			t.Fatalf("after three cold shapes: %d memory evictions, %d store writes; want 2 and 3 (write-throughs only)",
				m.FrontierCache.Evictions, m.FrontierStore.Writes)
		}
		return ts, m.FrontierStore.Bytes
	}

	// Unbounded disk: every evicted shape is still a store hit.
	ts, total := run(-1)
	for i := 0; i < 2; i++ {
		if _, resp, raw := post(t, ts, shape(i, 1)); !resp.Stats.ReusedFrontier {
			t.Errorf("evicted shape %d re-ran its dynamic program: %s", i, raw)
		}
	}
	if m := metrics(t, ts); m.FrontierStore.Hits != 2 || m.FrontierStore.Writes != 3 {
		t.Errorf("store hits=%d writes=%d, want 2 and 3", m.FrontierStore.Hits, m.FrontierStore.Writes)
	}

	// One byte short of all three: c's write-through sheds one snapshot.
	// Store write order is a, b, c, so untouched recency would shed a; but
	// b's arrival evicted a from memory after b's write-through, which
	// makes b the entry the store heard of least recently.
	ts, _ = run(total - 1)
	if m := metrics(t, ts); m.FrontierStore.Evictions != 1 || m.FrontierStore.Entries != 2 {
		t.Fatalf("store evictions=%d entries=%d, want 1 and 2", m.FrontierStore.Evictions, m.FrontierStore.Entries)
	}
	if _, resp, _ := post(t, ts, shape(0, 1)); !resp.Stats.ReusedFrontier {
		t.Error("shape a (touched by its memory eviction) was shed from the store")
	}
	if _, resp, _ := post(t, ts, shape(1, 1)); resp.Stats.ReusedFrontier {
		t.Error("shape b survived in the store although a was touched after it")
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moqo"
	"moqo/internal/tenant"
)

// tenantConfig parses a tenant-config document or fails the test.
func tenantConfig(t *testing.T, doc string) *tenant.Config {
	t.Helper()
	cfg, err := tenant.ParseConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// postAs sends an optimize request under a tenant identity.
func postAs(t *testing.T, ts *httptest.Server, ten, body string) (int, OptimizeResponse, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ten != "" {
		req.Header.Set(TenantHeader, ten)
	}
	res, err := http.DefaultClient.Do(req)
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

// postBatchAs sends a batch request under a tenant identity and decodes
// the collected response.
func postBatchAs(t *testing.T, ts *httptest.Server, ten, body string) (int, BatchResponse, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize/batch", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if ten != "" {
		req.Header.Set(TenantHeader, ten)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if res.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("decode batch response: %v\n%s", err, buf.String())
		}
	}
	return res.StatusCode, out, buf.String()
}

// chainBody renders an /optimize body for an n-table chain query over an
// inline catalog. sel varies the first relation's filter selectivity, so
// distinct sel values are distinct query shapes (distinct FrontierKeys —
// each one a genuinely cold dynamic program).
func chainBody(n int, sel float64, alg string, weights map[string]float64) string {
	spec := OptimizeRequest{
		Catalog:    chainCatalog(n),
		Query:      chainQuery(n, sel),
		Algorithm:  alg,
		Objectives: []string{"total_time", "buffer_footprint"},
		Weights:    weights,
		Workers:    1,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func chainCatalog(n int) *CatalogSpec {
	cat := &CatalogSpec{}
	for i := 0; i < n; i++ {
		cat.Tables = append(cat.Tables, TableSpec{
			Name:  fmt.Sprintf("t%d", i),
			Rows:  float64(1000 * (i + 1)),
			Width: 16,
			PK:    "id",
		})
	}
	return cat
}

func chainQuery(n int, sel float64) *QuerySpec {
	q := &QuerySpec{Name: "chain"}
	for i := 0; i < n; i++ {
		fs := 1.0
		if i == 0 {
			fs = sel
		}
		q.Relations = append(q.Relations, RelationSpec{Table: fmt.Sprintf("t%d", i), FilterSel: fs})
	}
	for i := 0; i+1 < n; i++ {
		q.Joins = append(q.Joins, JoinSpec{Left: i, Right: i + 1, LeftCol: "id", RightCol: "id", Selectivity: 0.01})
	}
	return q
}

// assertSameAnswer compares everything about two responses that the
// optimizer determines — the answer-invariance contract. Durations are
// wall-clock and legitimately differ.
func assertSameAnswer(t *testing.T, label string, plain, tenanted OptimizeResponse) {
	t.Helper()
	if plain.Algorithm != tenanted.Algorithm {
		t.Errorf("%s: algorithm %q vs %q", label, plain.Algorithm, tenanted.Algorithm)
	}
	if !bytes.Equal(plain.Plan, tenanted.Plan) {
		t.Errorf("%s: plans differ:\n%s\n%s", label, plain.Plan, tenanted.Plan)
	}
	if !reflect.DeepEqual(plain.Cost, tenanted.Cost) {
		t.Errorf("%s: costs differ: %v vs %v", label, plain.Cost, tenanted.Cost)
	}
	if !reflect.DeepEqual(plain.Frontier, tenanted.Frontier) {
		t.Errorf("%s: frontiers differ (%d vs %d points)", label, len(plain.Frontier), len(tenanted.Frontier))
	}
	if plain.Cached != tenanted.Cached {
		t.Errorf("%s: cached %v vs %v", label, plain.Cached, tenanted.Cached)
	}
	if plain.Stats.ReusedFrontier != tenanted.Stats.ReusedFrontier {
		t.Errorf("%s: reused_frontier %v vs %v", label, plain.Stats.ReusedFrontier, tenanted.Stats.ReusedFrontier)
	}
}

// TestTenancyDifferential: a tenanted server and an untenanted server
// answer the same request stream with bit-for-bit identical plans, costs
// and frontiers, and the same cache/frontier serving decisions — tenancy
// affects scheduling, limits and metrics, never answers.
func TestTenancyDifferential(t *testing.T) {
	plain := newTestServer(t, Options{})
	tenanted := newTestServer(t, Options{
		// Real quotas, generous enough to admit the whole stream.
		Tenants: tenant.NewRegistry(tenantConfig(t, `{
			"default": {"weight": 2},
			"tenants": {
				"acme":  {"weight": 4, "max_concurrent": 2, "max_tables": 32, "requests": 10000, "max_predicted_cost": 1e12},
				"other": {"weight": 1, "requests": 10000}
			}
		}`)),
		MaxColdDPs: 2,
	})

	// The stream mixes cold DPs, exact repeats, re-weights (frontier
	// hits), a frontier-returning request, and an inline-catalog shape.
	reweight := func(wt float64) string {
		return fmt.Sprintf(`{"tpch": 3, "alpha": 1.5,
			"objectives": ["total_time", "buffer_footprint", "tuple_loss"],
			"weights": {"total_time": 1, "buffer_footprint": %g}}`, wt)
	}
	stream := []struct {
		label string
		ten   string
		body  string
	}{
		{"cold q3", "acme", q3Request},
		{"exact repeat", "acme", q3Request},
		{"exact repeat other tenant", "other", q3Request},
		{"reweight 0.5", "acme", reweight(0.5)},
		{"reweight 2", "other", reweight(2)},
		{"with frontier", "acme", `{"frontier": true,` + q3Request[1:]},
		{"inline chain", "acme", chainBody(5, 0.5, "rta", map[string]float64{"total_time": 1})},
		{"inline chain reweight", "other", chainBody(5, 0.5, "rta", map[string]float64{"total_time": 1, "buffer_footprint": 3})},
		{"anonymous", "", q3Request},
	}
	for _, step := range stream {
		ps, presp, praw := post(t, plain, step.body)
		tss, tresp, traw := postAs(t, tenanted, step.ten, step.body)
		if ps != http.StatusOK || tss != http.StatusOK {
			t.Fatalf("%s: status %d vs %d\n%s\n%s", step.label, ps, tss, praw, traw)
		}
		assertSameAnswer(t, step.label, presp, tresp)
	}

	// The same batch against both servers: member answers must agree
	// member by member (the tenanted batch carries per-member tenants).
	plainBatch := `{"members": [
		{"tpch": 3, "objectives": ["total_time", "buffer_footprint", "tuple_loss"], "weights": {"total_time": 1}},
		{"tpch": 5, "objectives": ["total_time", "energy"]},
		{"tpch": 3, "objectives": ["total_time", "buffer_footprint", "tuple_loss"], "weights": {"total_time": 1, "tuple_loss": 2}}
	]}`
	tenantedBatch := `{"members": [
		{"tenant": "acme", "tpch": 3, "objectives": ["total_time", "buffer_footprint", "tuple_loss"], "weights": {"total_time": 1}},
		{"tenant": "other", "tpch": 5, "objectives": ["total_time", "energy"]},
		{"tpch": 3, "objectives": ["total_time", "buffer_footprint", "tuple_loss"], "weights": {"total_time": 1, "tuple_loss": 2}}
	]}`
	ps, pbatch, praw := postBatchAs(t, plain, "", plainBatch)
	tss, tbatch, traw := postBatchAs(t, tenanted, "acme", tenantedBatch)
	if ps != http.StatusOK || tss != http.StatusOK {
		t.Fatalf("batch: status %d vs %d\n%s\n%s", ps, tss, praw, traw)
	}
	if len(pbatch.Members) != len(tbatch.Members) {
		t.Fatalf("batch: %d vs %d members", len(pbatch.Members), len(tbatch.Members))
	}
	for i := range pbatch.Members {
		pm, tm := pbatch.Members[i], tbatch.Members[i]
		if pm.Error != "" || tm.Error != "" {
			t.Fatalf("batch member %d: unexpected errors %q vs %q", i, pm.Error, tm.Error)
		}
		assertSameAnswer(t, fmt.Sprintf("batch member %d", i), *pm.Result, *tm.Result)
	}
}

// TestTenantAdmissionRejections pins the admission wire contract: 429,
// the structured error body with code "admission" and the rejection
// reason, and a Retry-After hint exactly when waiting would help.
func TestTenantAdmissionRejections(t *testing.T) {
	ts := newTestServer(t, Options{
		Tenants: tenant.NewRegistry(tenantConfig(t, `{
			"tenants": {"limited": {"max_tables": 4, "max_predicted_cost": 1e4, "requests": 2, "interval_ms": 60000}}
		}`)),
	})
	decodeErr := func(raw string) ErrorResponse {
		var e ErrorResponse
		if err := json.Unmarshal([]byte(raw), &e); err != nil {
			t.Fatalf("decode error body: %v\n%s", err, raw)
		}
		return e
	}

	// Table ceiling: 6 tables past max_tables=4. Structural — no
	// Retry-After, and no token drained.
	status, _, raw := postAs(t, ts, "limited", chainBody(6, 0.5, "rta", nil))
	if status != http.StatusTooManyRequests {
		t.Fatalf("table-ceiling status %d: %s", status, raw)
	}
	if e := decodeErr(raw); e.Code != CodeAdmission || e.Reason != "tables" || e.RetryAfterMs != 0 {
		t.Errorf("table-ceiling body: %+v", e)
	}

	// Cost ceiling: a 4-table EXA with 5 objectives predicts
	// 3^4 * 2^4 * 8 = 10368 > 1e4 while staying under the table ceiling,
	// so the rejection reason must be "cost". Also structural: no hint.
	costSpec, err := json.Marshal(OptimizeRequest{
		Catalog:    chainCatalog(4),
		Query:      chainQuery(4, 0.5),
		Algorithm:  "exa",
		Objectives: []string{"total_time", "buffer_footprint", "energy", "io_load", "cpu_load"},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, _, raw = postAs(t, ts, "limited", string(costSpec))
	if status != http.StatusTooManyRequests {
		t.Fatalf("cost-ceiling status %d: %s", status, raw)
	}
	if e := decodeErr(raw); e.Code != CodeAdmission || e.Reason != "cost" {
		t.Errorf("cost-ceiling body: %+v", e)
	}

	// Rate budget: two admitted requests drain the bucket, the third is
	// rejected with a retry hint on both the header and the body.
	cheap := chainBody(3, 0.5, "rta", map[string]float64{"total_time": 1})
	for i := 0; i < 2; i++ {
		if status, _, raw := postAs(t, ts, "limited", cheap); status != http.StatusOK {
			t.Fatalf("budgeted request %d: status %d: %s", i, status, raw)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(cheap))
	req.Header.Set(TenantHeader, "limited")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	_, _ = body.ReadFrom(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained-budget status %d: %s", res.StatusCode, body.String())
	}
	if ra := res.Header.Get("Retry-After"); ra == "" {
		t.Error("rate rejection missing Retry-After header")
	}
	if e := decodeErr(body.String()); e.Code != CodeAdmission || e.Reason != "rate" || e.RetryAfterMs <= 0 {
		t.Errorf("rate body: %+v", e)
	}

	// Structural rejections did not drain tokens, and every rejection is
	// on the tenant's metrics.
	m := metrics(t, ts)
	var lim *TenantMetrics
	for i := range m.Tenants {
		if m.Tenants[i].Name == "limited" {
			lim = &m.Tenants[i]
		}
	}
	if lim == nil {
		t.Fatalf("tenant missing from /metrics: %+v", m.Tenants)
	}
	if lim.Rejected["tables"] != 1 || lim.Rejected["cost"] != 1 || lim.Rejected["rate"] != 1 {
		t.Errorf("rejection counters: %+v", lim.Rejected)
	}
	if lim.Admitted != 2 {
		t.Errorf("admitted = %d, want 2", lim.Admitted)
	}

	// Other tenants are untouched by "limited"'s quota.
	if status, _, raw := postAs(t, ts, "unlimited-friend", chainBody(6, 0.5, "rta", nil)); status != http.StatusOK {
		t.Errorf("default-quota tenant rejected: %d %s", status, raw)
	}

	// A malformed tenant name is a 400, not a quota rejection.
	if status, _, raw := postAs(t, ts, "bad name", cheap); status != http.StatusBadRequest {
		t.Errorf("malformed tenant name: status %d: %s", status, raw)
	}
}

// TestBatchMemberErrorCodes pins the per-member error-code wire
// contract: validation for malformed members, admission for
// quota-rejected ones — each independent of its siblings, which still
// succeed.
func TestBatchMemberErrorCodes(t *testing.T) {
	ts := newTestServer(t, Options{
		Tenants: tenant.NewRegistry(tenantConfig(t, `{
			"tenants": {"capped": {"max_tables": 2}, "drained": {"requests": 1, "interval_ms": 3600000, "burst": 1}}
		}`)),
	})
	// Drain "drained"'s only token so its member is rate-rejected.
	if status, _, raw := postAs(t, ts, "drained", chainBody(3, 0.5, "rta", nil)); status != http.StatusOK {
		t.Fatalf("drain request: status %d: %s", status, raw)
	}

	body, err := json.Marshal(BatchRequest{
		Catalog: chainCatalog(4),
		Members: []BatchMemberRequest{
			{Query: chainQuery(3, 0.5), Objectives: []string{"total_time", "buffer_footprint"}},
			{Objectives: []string{"total_time"}}, // neither tpch nor query
			{Tenant: "capped", Query: chainQuery(3, 0.5), Objectives: []string{"total_time", "buffer_footprint"}},
			{Tenant: "not a name", Query: chainQuery(3, 0.5), Objectives: []string{"total_time"}},
			{Tenant: "drained", Query: chainQuery(2, 0.5), Objectives: []string{"total_time", "buffer_footprint"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, batch, raw := postBatchAs(t, ts, "", string(body))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	want := []struct {
		code      string
		retryHint bool
	}{
		{"", false},             // valid member served
		{CodeValidation, false}, // malformed member
		{CodeAdmission, false},  // table ceiling (structural, no hint)
		{CodeValidation, false}, // malformed tenant name
		{CodeAdmission, true},   // rate budget (retryable)
	}
	for i, w := range want {
		m := batch.Members[i]
		if m.ErrorCode != w.code {
			t.Errorf("member %d: error_code %q, want %q (error: %s)", i, m.ErrorCode, w.code, m.Error)
		}
		if (m.Error == "") != (w.code == "") {
			t.Errorf("member %d: error %q inconsistent with code %q", i, m.Error, w.code)
		}
		if w.code == "" && m.Result == nil {
			t.Errorf("member %d: no result on the valid member", i)
		}
		if hinted := m.RetryAfterMs > 0; hinted != w.retryHint {
			t.Errorf("member %d: retry_after_ms=%d, want hint=%v", i, m.RetryAfterMs, w.retryHint)
		}
	}
	if batch.Stats.Errors != 4 {
		t.Errorf("batch stats errors = %d, want 4", batch.Stats.Errors)
	}
}

// TestServeErrorClassification pins the serve-time mapping from an error
// to its wire code, HTTP status and reason (resolve-time failures never
// reach it, so only shed, cancellation and internal classes exist), and
// that classifying counts: every failure is an error, sheds and contained
// panics additionally their own counters.
func TestServeErrorClassification(t *testing.T) {
	cases := []struct {
		err    error
		code   string
		status int
		reason string
	}{
		{fmt.Errorf("wrapped: %w", tenant.ErrQueueFull), CodeOverload, http.StatusServiceUnavailable, "queue_full"},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), CodeOverload, http.StatusServiceUnavailable, "budget_exhausted"},
		{fmt.Errorf("wrapped: %w", moqo.ErrInternalPanic), CodeInternal, http.StatusInternalServerError, ""},
		{fmt.Errorf("wrapped: %w", context.Canceled), CodeCanceled, http.StatusBadRequest, ""},
		{fmt.Errorf("exploded"), CodeInternal, http.StatusInternalServerError, ""},
	}
	svc := New(Options{})
	for _, c := range cases {
		if f := svc.serveFailure(c.err); f.code != c.code || f.status != c.status || f.reason != c.reason {
			t.Errorf("serveFailure(%v) = (%q, %d, %q), want (%q, %d, %q)", c.err, f.code, f.status, f.reason, c.code, c.status, c.reason)
		}
	}
	if e, shed, p := svc.errors.Load(), svc.shedOverload.Load(), svc.panics.Load(); e != 5 || shed != 2 || p != 1 {
		t.Errorf("counted errors=%d shed=%d panics=%d, want 5, 2, 1", e, shed, p)
	}
}

// TestTenancyFairness: with one tenant flooding the cold-DP queue, a
// light tenant living on the frontier fast path is never queued behind
// the flood — its requests keep completing in interactive time, and the
// scheduler's claim counts prove who ran what.
func TestTenancyFairness(t *testing.T) {
	svc, err := NewE(Options{
		MaxColdDPs: 1, // one DP slot: the flood saturates it completely
		Tenants: tenant.NewRegistry(tenantConfig(t, `{
			"tenants": {"flood": {"weight": 1}, "light": {"weight": 3}}
		}`)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Warm the light tenant's shape: one cold DP, after which every
	// re-weight is a frontier hit that must bypass the scheduler.
	lightShape := func(wt float64) string {
		return chainBody(5, 0.25, "rta", map[string]float64{"total_time": 1, "buffer_footprint": wt})
	}
	if status, _, raw := postAs(t, ts, "light", lightShape(1)); status != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", status, raw)
	}

	// Flood: distinct 8-table EXA shapes (distinct filter selectivities →
	// distinct FrontierKeys → every one a cold DP) from 4 concurrent
	// clients, all contending for the single DP slot. The clients loop
	// until stopped so the slot stays contended for the whole light
	// phase — a fixed request count can drain in a couple hundred
	// milliseconds on a fast box, leaving nothing to measure against.
	const floodClients = 4
	var stopFlood atomic.Bool
	var floodServed atomic.Int64
	var wg sync.WaitGroup
	floodErr := make(chan string, 1)
	for c := 0; c < floodClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Disjoint residues mod floodClients keep every selectivity
			// distinct across clients: no single-flight coalescing, every
			// request its own cold DP and its own scheduler grant.
			for i := c; !stopFlood.Load(); i += floodClients {
				sel := 0.3 + float64(i)*0.0001
				status, _, raw := postAs(t, ts, "flood", chainBody(8, sel, "exa", nil))
				floodServed.Add(1)
				if status != http.StatusOK {
					select {
					case floodErr <- fmt.Sprintf("status %d: %s", status, raw):
					default:
					}
				}
			}
		}()
	}

	// Wait until the flood demonstrably occupies the scheduler. Granted()
	// is monotonic, so this cannot miss a transient window the way
	// polling instantaneous queue depth can.
	waitFor(t, 30*time.Second, "the flood to saturate the scheduler",
		func() bool { return svc.sched.Granted()["flood"] >= 2 })

	// The light tenant's re-weights run while the flood is queued. Each
	// is a frontier hit; none may wait for a DP slot.
	var lightMs []float64
	for i := 0; i < 20; i++ {
		startReq := time.Now()
		status, resp, raw := postAs(t, ts, "light", lightShape(0.1+float64(i)))
		if status != http.StatusOK {
			t.Fatalf("light request %d: status %d: %s", i, status, raw)
		}
		if !resp.Stats.ReusedFrontier {
			t.Fatalf("light request %d missed the frontier fast path", i)
		}
		lightMs = append(lightMs, float64(time.Since(startReq))/float64(time.Millisecond))
	}
	sort.Float64s(lightMs)
	// Generous interactive bound: queuing behind even one 8-table EXA
	// would cost hundreds of milliseconds per request; behind the whole
	// flood, tens of seconds.
	if p99 := Percentile(lightMs, 0.99); p99 > 2000 {
		t.Errorf("light tenant p99 = %.1fms under flood; the fast path is being queued", p99)
	}

	stopFlood.Store(true)
	wg.Wait()
	select {
	case msg := <-floodErr:
		t.Errorf("flood request failed: %s", msg)
	default:
	}
	// No starvation: the flood kept completing throughout — every request
	// it managed to issue was served, not parked forever behind the light
	// tenant's higher weight.
	served := floodServed.Load()
	if served < 2 {
		t.Fatalf("flood served only %d requests", served)
	}

	// Claim-count accounting: every flood DP took a scheduler grant; the
	// light tenant took exactly one (its warm-up) — the fast path never
	// claimed a slot.
	g := svc.sched.Granted()
	if int64(g["flood"]) != served {
		t.Errorf("flood grants = %d, want %d (one per served request)", g["flood"], served)
	}
	if g["light"] != 1 {
		t.Errorf("light grants = %d, want 1 (warm-up only)", g["light"])
	}
	if svc.sched.Running() != 0 {
		t.Errorf("slots leaked: %d still running", svc.sched.Running())
	}
}

// TestTenancyHotReload: swapping the registry's config mid-flight
// changes quotas without restarting the server or losing counters — the
// SIGHUP path minus the signal.
func TestTenancyHotReload(t *testing.T) {
	reg := tenant.NewRegistry(tenantConfig(t, `{"tenants": {"acme": {"max_tables": 3}}}`))
	ts := newTestServer(t, Options{Tenants: reg})

	body := chainBody(5, 0.5, "rta", nil)
	if status, _, _ := postAs(t, ts, "acme", body); status != http.StatusTooManyRequests {
		t.Fatalf("pre-reload: 5 tables admitted past max_tables=3 (status %d)", status)
	}
	reg.Reload(tenantConfig(t, `{"tenants": {"acme": {"max_tables": 16}}}`))
	if status, _, raw := postAs(t, ts, "acme", body); status != http.StatusOK {
		t.Fatalf("post-reload: status %d: %s", status, raw)
	}
	m := metrics(t, ts)
	if len(m.Tenants) != 1 || m.Tenants[0].Rejected["tables"] != 1 || m.Tenants[0].Requests != 2 {
		t.Errorf("counters lost across reload: %+v", m.Tenants)
	}
}

// promSeries maps every number in the /metrics JSON body (dotted path;
// tenant entries are keyed without their index and take the tenant name
// as %s) to the series that carries the same value on
// /metrics/prometheus. "" marks the values the text endpoint leaves out
// on purpose. TestPrometheusExposition fails on a JSON number that has
// no row here, so a metric added to one endpoint cannot be forgotten on
// the other: add the series to handleMetricsPrometheus and its row below.
var promSeries = map[string]string{
	"uptime_ms": "", // exported in seconds, and never the same twice

	"requests.optimize":      `moqo_requests_total{endpoint="optimize"}`,
	"requests.batch":         `moqo_requests_total{endpoint="batch"}`,
	"requests.batch_members": "moqo_batch_members_total",
	"requests.errors":        "moqo_errors_total",
	"requests.in_flight":     "moqo_in_flight",
	"requests.shed_overload": "moqo_shed_overload_total",
	"requests.panics":        "moqo_panics_total",

	"latency_ms.window": "",
	"latency_ms.p50":    `moqo_latency_quantile_ms{quantile="0.5"}`,
	"latency_ms.p99":    `moqo_latency_quantile_ms{quantile="0.99"}`,

	// The cache block stands for the exact-result cache, which is gone: it
	// reads zero and is not exported.
	"cache.hits":      "",
	"cache.misses":    "",
	"cache.coalesced": "",
	"cache.evictions": "",
	"cache.entries":   "",
	"cache.capacity":  "",
	"cache.hit_ratio": "",

	"frontier_cache.hits":            `moqo_cache_hits_total{tier="frontier"}`,
	"frontier_cache.misses":          `moqo_cache_misses_total{tier="frontier"}`,
	"frontier_cache.coalesced":       `moqo_cache_coalesced_total{tier="frontier"}`,
	"frontier_cache.evictions":       `moqo_cache_evictions_total{tier="frontier"}`,
	"frontier_cache.entries":         `moqo_cache_entries{tier="frontier"}`,
	"frontier_cache.capacity":        "", // configuration, not a measurement
	"frontier_cache.hit_ratio":       "", // derivable from hits, misses and coalesced
	"frontier_cache.reweight_served": "moqo_reweight_served_total",
	"frontier_cache.snapshot_bytes":  "moqo_snapshot_bytes",

	"frontier_store.hits":            "moqo_store_hits_total",
	"frontier_store.misses":          "moqo_store_misses_total",
	"frontier_store.writes":          "moqo_store_writes_total",
	"frontier_store.bytes":           "moqo_store_bytes",
	"frontier_store.evictions":       "moqo_store_evictions_total",
	"frontier_store.corrupt_dropped": "moqo_store_corrupt_dropped_total",
	"frontier_store.compactions":     "moqo_store_compactions_total",
	"frontier_store.entries":         "moqo_store_entries",
	"frontier_store.io_errors":       "moqo_store_io_errors_total",
	"frontier_store.skipped":         "moqo_store_skipped_total",

	"frontier_store.breaker.trips":                "moqo_store_breaker_trips_total",
	"frontier_store.breaker.consecutive_failures": "", // transient detail of the state gauge
	"frontier_store.breaker.retry_in_ms":          "",

	"tenants.requests":          `moqo_tenant_requests_total{tenant="%s"}`,
	"tenants.admitted":          `moqo_tenant_admitted_total{tenant="%s"}`,
	"tenants.rejected.rate":     `moqo_tenant_rejected_total{tenant="%s",reason="rate"}`,
	"tenants.rejected.tables":   `moqo_tenant_rejected_total{tenant="%s",reason="tables"}`,
	"tenants.rejected.cost":     `moqo_tenant_rejected_total{tenant="%s",reason="cost"}`,
	"tenants.queue_depth":       `moqo_tenant_queue_depth{tenant="%s"}`,
	"tenants.granted":           `moqo_tenant_granted_total{tenant="%s"}`,
	"tenants.cache_bytes":       `moqo_tenant_cache_bytes{tenant="%s"}`,
	"tenants.cache_entries":     `moqo_tenant_cache_entries{tenant="%s"}`,
	"tenants.cache_evictions":   `moqo_tenant_cache_evictions_total{tenant="%s"}`,
	"tenants.latency_ms.window": "",
	"tenants.latency_ms.p50":    `moqo_tenant_latency_quantile_ms{tenant="%s",quantile="0.5"}`,
	"tenants.latency_ms.p99":    `moqo_tenant_latency_quantile_ms{tenant="%s",quantile="0.99"}`,
}

// checkPromParity walks the decoded /metrics body and requires, for
// every number, the promSeries row's series in the text samples with the
// same value.
func checkPromParity(t *testing.T, path, tenant string, v any, samples map[string]float64) {
	t.Helper()
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			checkPromParity(t, strings.TrimPrefix(path+"."+k, "."), tenant, child, samples)
		}
	case []any: // only the tenants section is a list
		for _, child := range v {
			checkPromParity(t, path, child.(map[string]any)["name"].(string), child, samples)
		}
	case float64:
		series, ok := promSeries[path]
		if !ok {
			t.Errorf("/metrics %s has no promSeries row: export it on /metrics/prometheus too", path)
		} else if series != "" {
			if tenant != "" {
				series = fmt.Sprintf(series, tenant)
			}
			if got, ok := samples[series]; !ok || got != v {
				t.Errorf("/metrics %s = %v, but %s = %v (present: %t)", path, v, series, got, ok)
			}
		}
	}
}

// TestPrometheusExposition: the hand-rolled text endpoint carries the
// server-wide and per-tenant series in valid exposition shape, and on a
// quiescent server every counter of the JSON endpoint with the same
// value — both are one gather (metricsSnapshot) rendered twice.
func TestPrometheusExposition(t *testing.T) {
	opts := storeOpts(t.TempDir())
	opts.Tenants = tenant.NewRegistry(tenantConfig(t, `{"tenants": {"acme": {"max_tables": 4}}}`))
	ts := newTestServer(t, opts)
	if status, _, raw := postAs(t, ts, "acme", q3Request); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if status, _, _ := postAs(t, ts, "acme", chainBody(6, 0.5, "rta", nil)); status != http.StatusTooManyRequests {
		t.Fatalf("expected a tables rejection, got %d", status)
	}

	res, err := http.Get(ts.URL + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE moqo_requests_total counter",
		`moqo_requests_total{endpoint="optimize"} 2`,
		"# TYPE moqo_tenant_requests_total counter",
		`moqo_tenant_requests_total{tenant="acme"} 2`,
		`moqo_tenant_admitted_total{tenant="acme"} 1`,
		`moqo_tenant_rejected_total{tenant="acme",reason="tables"} 1`,
		`moqo_cache_hits_total{tier="frontier"}`,
		"# TYPE moqo_tenant_latency_quantile_ms gauge",
		"moqo_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every non-comment line is "name{labels} value" with a parseable
	// float value — the format contract a scraper depends on.
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}

	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	checkPromParity(t, "", "", body, samples)
	if state := body["frontier_store"].(map[string]any)["breaker"].(map[string]any)["state"]; state != "closed" || samples["moqo_store_breaker_state"] != 0 {
		t.Errorf("breaker state %v on /metrics, gauge %v on /metrics/prometheus; want closed and 0", state, samples["moqo_store_breaker_state"])
	}
}

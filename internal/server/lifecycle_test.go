package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"moqo/internal/core"
	"moqo/internal/tenant"
)

// batchOfOne renders an /optimize body as the equivalent one-member
// /optimize/batch body.
func batchOfOne(t *testing.T, body string) string {
	t.Helper()
	var req OptimizeRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(BatchRequest{
		Catalog:     req.Catalog,
		ScaleFactor: req.ScaleFactor,
		Members: []BatchMemberRequest{{
			TPCH: req.TPCH, Query: req.Query,
			Algorithm: req.Algorithm, Alpha: req.Alpha, Objectives: req.Objectives,
			Weights: req.Weights, Bounds: req.Bounds, Precisions: req.Precisions,
			TimeoutMs: req.TimeoutMs, Workers: req.Workers, MaxDOP: req.MaxDOP,
			Frontier: req.Frontier,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// boundedBody is chainBody with a (loose) bound, under the given wire
// algorithm: "" resolves to IRA because of the bound.
func boundedBody(n int, alg string) string {
	body := chainBody(n, 0.5, alg, map[string]float64{"total_time": 1})
	return body[:len(body)-1] + `,"bounds":{"buffer_footprint":1e15}}`
}

// TestLifecycleEquivalence: /optimize is a batch of one. The same request
// sent to /optimize and as a one-member /optimize/batch, each to a fresh
// server, yields the same answer bytes or the same error class, and moves
// the request, error, per-tenant admission and scheduler-grant metrics by
// the same amounts. A malformed request is refused before admission: it
// costs its tenant no token and touches no tier, scheduler slot or engine.
func TestLifecycleEquivalence(t *testing.T) {
	// "once" holds a single token: a request admitted by mistake drains it.
	const quotas = `{"tenants": {"small": {"max_tables": 2}, "once": {"requests": 1, "interval_ms": 3600000}}}`
	malformed := func(field string) string {
		return `{"tpch": 3, "objectives": ["total_time", "energy"], ` + field + `}`
	}
	cases := []struct {
		name, tenant, body string
		status             int    // of /optimize
		code               string // error class, "" on success
	}{
		{"tpch shortcut", "", `{"tpch": 3, "alpha": 1.5, "objectives": ["total_time", "energy"], "weights": {"total_time": 1}, "frontier": true}`, 200, ""},
		{"inline catalog", "acme", chainBody(4, 0.5, "exa", map[string]float64{"total_time": 1, "buffer_footprint": 0.2}), 200, ""},
		{"bounded auto", "", boundedBody(4, ""), 200, ""},
		{"inline query over tpch", "", `{"query": {"relations": [{"table": "customer", "filter_sel": 0.2}, {"table": "orders"}],
			"joins": [{"left": 1, "right": 0, "left_col": "o_custkey", "right_col": "c_custkey", "selectivity": 0.0000066}]},
			"scale_factor": 0.1, "algorithm": "exa", "objectives": ["total_time", "buffer_footprint"]}`, 200, ""},
		{"invalid objective", "acme", `{"tpch": 3, "objectives": ["latency"]}`, 400, CodeValidation},
		{"rta with bounds", "once", malformed(`"algorithm": "rta", "bounds": {"energy": 1e15}`), 400, CodeValidation},
		{"alpha below 1", "once", malformed(`"alpha": 0.5`), 400, CodeValidation},
		{"max_dop out of range", "once", malformed(`"max_dop": 99`), 400, CodeValidation},
		{"negative weight", "once", malformed(`"weights": {"total_time": -1}`), 400, CodeValidation},
		{"negative bound", "once", malformed(`"bounds": {"energy": -1}`), 400, CodeValidation},
		{"precision below 1", "once", malformed(`"precisions": {"energy": 0.5}`), 400, CodeValidation},
		{"over-quota tenant", "small", chainBody(3, 0.5, "rta", nil), 429, CodeAdmission},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			single := newTestServer(t, Options{Tenants: tenant.NewRegistry(tenantConfig(t, quotas))})
			batched := newTestServer(t, Options{Tenants: tenant.NewRegistry(tenantConfig(t, quotas))})
			runsBefore := core.EngineRuns()

			status, want, raw := postAs(t, single, c.tenant, c.body)
			if status != c.status {
				t.Fatalf("/optimize: status %d, want %d: %s", status, c.status, raw)
			}
			bstatus, batch, braw := postBatchAs(t, batched, c.tenant, batchOfOne(t, c.body))
			if bstatus != http.StatusOK || len(batch.Members) != 1 {
				t.Fatalf("/optimize/batch: status %d: %s", bstatus, braw)
			}
			member := batch.Members[0]

			if c.code == "" {
				got := member.Result
				if got == nil {
					t.Fatalf("batch member failed: %s", member.Error)
				}
				if want.Algorithm != got.Algorithm || !bytes.Equal(compactJSON(t, want.Plan), compactJSON(t, got.Plan)) ||
					!reflect.DeepEqual(want.Cost, got.Cost) || !reflect.DeepEqual(want.Frontier, got.Frontier) {
					t.Errorf("answers differ:\n/optimize: %s\nbatch:     %s", raw, braw)
				}
			} else {
				var e ErrorResponse
				if err := json.Unmarshal([]byte(raw), &e); err != nil {
					t.Fatal(err)
				}
				if e.Code != c.code || member.ErrorCode != c.code {
					t.Errorf("error class: /optimize %q, batch member %q, want %q", e.Code, member.ErrorCode, c.code)
				}
				if !strings.HasSuffix(member.Error, e.Error) {
					t.Errorf("error text: /optimize %q, batch member %q", e.Error, member.Error)
				}
			}

			ms, mb := metrics(t, single), metrics(t, batched)
			if ms.Requests.Optimize != 1 || mb.Requests.Batch != 1 || mb.Requests.BatchMembers != 1 {
				t.Errorf("request counters: /optimize %+v, batch %+v", ms.Requests, mb.Requests)
			}
			if ms.Requests.Errors != mb.Requests.Errors {
				t.Errorf("errors: /optimize %d, batch %d", ms.Requests.Errors, mb.Requests.Errors)
			}
			type tenantDelta struct {
				Name               string
				Requests, Admitted uint64
				Rejected           map[string]uint64
				Granted            uint64
			}
			deltas := func(m MetricsResponse) (out []tenantDelta) {
				for _, tm := range m.Tenants {
					out = append(out, tenantDelta{tm.Name, tm.Requests, tm.Admitted, tm.Rejected, tm.Granted})
				}
				return out
			}
			if ds, db := deltas(ms), deltas(mb); !reflect.DeepEqual(ds, db) || len(ds) != 1 {
				t.Errorf("tenant metrics: /optimize %+v, batch %+v", ds, db)
			}
			if c.code != CodeValidation {
				return
			}
			for _, m := range []MetricsResponse{ms, mb} {
				if tm := m.Tenants[0]; tm.Admitted != 0 || tm.Granted != 0 || m.Cache.Misses != 0 || m.FrontierCache.Misses != 0 {
					t.Errorf("a malformed request got past resolve: admitted %d, granted %d, cache misses %d, frontier misses %d",
						tm.Admitted, tm.Granted, m.Cache.Misses, m.FrontierCache.Misses)
				}
			}
			if runs := core.EngineRuns(); runs != runsBefore {
				t.Errorf("a malformed request started %d dynamic programs", runs-runsBefore)
			}
			if status, _, raw := postAs(t, single, c.tenant, q3Request); status != http.StatusOK {
				t.Errorf("valid /optimize after the malformed one: status %d: %s", status, raw)
			}
			if _, batch, raw := postBatchAs(t, batched, c.tenant, batchOfOne(t, q3Request)); len(batch.Members) != 1 || batch.Members[0].Result == nil {
				t.Errorf("valid batch member after the malformed one: %s", raw)
			}
		})
	}
}

// TestAdmissionCostsResolvedAlgorithm: admission costs a request by the
// algorithm that will run. A bounded request with the algorithm omitted
// resolves to IRA, so it gets the verdict of the same request spelling
// "ira" out — on /optimize and as batch members alike — instead of
// slipping under the cost ceiling at RTA's factor.
func TestAdmissionCostsResolvedAlgorithm(t *testing.T) {
	// A 5-table chain under two objectives predicts 3^5·2 = 486 at RTA's
	// factor and 1458 at IRA's: the ceiling sits between them.
	const quotas = `{"tenants": {"capped": {"max_predicted_cost": 1000}}}`
	ts := newTestServer(t, Options{Tenants: tenant.NewRegistry(tenantConfig(t, quotas))})

	if status, _, raw := postAs(t, ts, "capped", chainBody(5, 0.5, "", nil)); status != http.StatusOK {
		t.Fatalf("unbounded auto (RTA) request under the ceiling rejected: %d %s", status, raw)
	}
	for _, alg := range []string{"ira", "", "auto"} {
		status, _, raw := postAs(t, ts, "capped", boundedBody(5, alg))
		var e ErrorResponse
		_ = json.Unmarshal([]byte(raw), &e)
		if status != http.StatusTooManyRequests || e.Code != CodeAdmission || e.Reason != tenant.ReasonCost {
			t.Errorf("/optimize algorithm %q: status %d code %q reason %q, want 429 admission/cost", alg, status, e.Code, e.Reason)
		}
	}

	var members []BatchMemberRequest
	for _, alg := range []string{"ira", "", "auto"} {
		members = append(members, BatchMemberRequest{
			Query: chainQuery(5, 0.5), Algorithm: alg, Objectives: []string{"total_time", "buffer_footprint"},
			Bounds: map[string]float64{"buffer_footprint": 1e15},
		})
	}
	body, err := json.Marshal(BatchRequest{Catalog: chainCatalog(5), Members: members})
	if err != nil {
		t.Fatal(err)
	}
	status, batch, raw := postBatchAs(t, ts, "capped", string(body))
	if status != http.StatusOK || len(batch.Members) != 3 {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	for i, m := range batch.Members {
		if m.ErrorCode != CodeAdmission {
			t.Errorf("batch member %d: error_code %q (%s), want %q", i, m.ErrorCode, m.Error, CodeAdmission)
		}
	}
}

// fuzzTarget is a fuzz target's server: a tight deadline keeps every
// execution short (a deadline degrades the answer, it never fails it),
// and a default quota puts admission rejections within the fuzzer's reach.
// Its handler is built once, and it keeps the tenants' admissions as the
// last execution left them: a fuzzing process runs one execution at a
// time, so one tenant snapshot per execution tells what it admitted.
type fuzzTarget struct {
	s        *Server
	handler  http.Handler
	admitted uint64
}

func newFuzzTarget(f *testing.F) *fuzzTarget {
	cfg, err := tenant.ParseConfig([]byte(`{"default": {"max_tables": 6, "max_predicted_cost": 20000}}`))
	if err != nil {
		f.Fatal(err)
	}
	s := New(Options{
		Tenants:        tenant.NewRegistry(cfg),
		DefaultTimeout: 5 * time.Millisecond,
		MaxTimeout:     5 * time.Millisecond,
	})
	return &fuzzTarget{s: s, handler: s.Handler()}
}

// post sends one fuzzed body and checks what holds for every answer: a
// 400 was refused before admission — no tenant was charged and no dynamic
// program started.
func (ft *fuzzTarget) post(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	admittedBefore, runsBefore := ft.admitted, core.EngineRuns()
	rec := httptest.NewRecorder()
	ft.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	ft.admitted = 0
	for _, snap := range ft.s.tenants.Snapshots() {
		ft.admitted += snap.Admitted
	}
	if !fuzzStatusOK(rec.Code) {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Code == http.StatusBadRequest && (ft.admitted != admittedBefore || core.EngineRuns() != runsBefore) {
		t.Fatalf("a 400 was admitted or ran an engine: admitted %d -> %d, engine runs %d -> %d: %s",
			admittedBefore, ft.admitted, runsBefore, core.EngineRuns(), rec.Body.String())
	}
	return rec
}

// fuzzStatusOK reports whether a fuzzed body was answered with a status
// the lifecycle can produce on purpose: anything else — a 500 above all —
// is a contained panic or a mapping hole.
func fuzzStatusOK(status int) bool {
	switch status {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
		http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// FuzzOptimizeBody: no /optimize body panics the handler, gets a status
// outside {200, 400, 413, 429, 503} or is answered code "internal"; a 200
// carries a plan.
func FuzzOptimizeBody(f *testing.F) {
	for _, seed := range []string{
		q3Request, reweightRequest(1), iraRequest(1), boundedBody(3, ""),
		chainBody(3, 0.5, "exa", map[string]float64{"total_time": 1}), chainBody(8, 0.5, "rta", nil),
		`{}`, `{`, `{"tpch": 77, "objectives": ["total_time"]}`, `{"tpch": 3, "objectives": ["latency"]}`,
		`{"tpch": 3, "objectives": ["total_time"], "wat": 1}`,
		`{"tpch": 3, "objectives": ["total_time", "energy"], "alpha": 0.5, "max_dop": 99, "weights": {"energy": -1}}`,
		`{"tpch": 3, "objectives": ["total_time", "energy"], "algorithm": "rta", "bounds": {"energy": -1}, "precisions": {"energy": 0.5}}`,
		`{"tpch": 3, "catalog": {"tables": [{"name": "t", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "t"}]}, "objectives": ["total_time"]}`,
		`{"catalog": {"tables": [{"name": "a", "rows": 1, "width": 8}]}, "query": {"relations": [{"table": "a"}], "joins": [{"left": 0, "right": 0, "left_col": "x", "right_col": "y", "selectivity": 0.5}]}, "objectives": ["total_time"]}`,
	} {
		f.Add([]byte(seed))
	}
	ft := newFuzzTarget(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := ft.post(t, "/optimize", body)
		if rec.Code == http.StatusOK {
			var resp OptimizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Plan) == 0 {
				t.Fatalf("200 without a plan (%v): %s", err, rec.Body.String())
			}
			return
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code == CodeInternal {
			t.Fatalf("failure body (%v): %s", err, rec.Body.String())
		}
	})
}

// batchOfOneSeed is an inline-catalog batch (batchOfOne needs a *testing.T).
var batchOfOneSeed = func() string {
	b, _ := json.Marshal(BatchRequest{Catalog: chainCatalog(4), Members: []BatchMemberRequest{
		{Query: chainQuery(4, 0.5), Objectives: []string{"total_time", "buffer_footprint"}, Frontier: true},
		{Query: chainQuery(3, 0.5), Algorithm: "exa", Objectives: []string{"total_time", "energy"}, Bounds: map[string]float64{"energy": 1e15}},
		{TPCH: 3, Objectives: []string{"total_time"}},
	}})
	return string(b)
}()

// specSeed is a two-member batch over a two-table catalog whose members
// spell their queries as given.
func specSeed(a, b string) string {
	return `{"catalog": {"tables": [{"name": "t0", "rows": 10, "width": 8}, {"name": "t1", "rows": 20, "width": 8}]}, "members": [` +
		`{"query": ` + a + `, "objectives": ["total_time"]}, {"query": ` + b + `, "objectives": ["total_time"]}]}`
}

// batchSeeds are the batch fuzz targets' seeds: valid batches, envelope
// and member errors, and query specs spelled alike, respelt, mistyped,
// null and twice.
func batchSeeds() []string {
	const spec = `{"relations": [{"table": "t0", "filter_sel": 1}, {"table": "t1"}], "joins": [{"left": 0, "right": 1, "left_col": "id", "right_col": "id", "selectivity": 0.5}]}`
	// The members spelled twice: each spec is decoded a second time into the
	// first one's, so two equal specs reach the plain decode's interning.
	twice := specSeed(spec, spec)
	return []string{
		tpchBatch, `{"stream": true,` + tpchBatch[1:], batchOfOneSeed,
		`{"members": []}`, `{"members": [{}]}`, `{`, `{"scale_factor": -1, "members": [{"tpch": 3, "objectives": ["total_time"]}]}`,
		`{"parallel": 3, "members": [{"tpch": 3, "tenant": "not a name", "objectives": ["total_time"]}, {"tpch": 99, "objectives": ["total_time"]}]}`,
		specSeed(spec, spec),
		specSeed(spec, `{"joins": [{"selectivity": 0.5, "right_col": "id", "left_col": "id", "right": 1, "left": 0}], "relations": [{"filter_sel": 1, "table": "t0"}, {"table": "t1"}]}`),
		specSeed(spec, "{\n\t\"relations\" : [ {\"table\":\"t0\",\"filter_sel\":1} , {\"table\":\"t1\"} ],\r\n \"joins\":[{\"left\":0,\"right\":1,\"left_col\":\"id\",\"right_col\":\"id\",\"selectivity\":0.5}] }"),
		specSeed(spec, strings.Replace(spec, `"filter_sel": 1`, `"filter_sel": 1.0`, 1)),
		specSeed(spec, `{"relations": [{"table": "t0", "filter_sel": "1"}]}`),
		specSeed(spec, spec) + ` {"members": []} trailing`,
		specSeed(`null`, spec),
		strings.Replace(specSeed(spec, spec), `"query": `, `"query": {"name": "first", "joins": []}, "query": `, 1),
		`{"members": [{"tpch": 3, "objectives": ["total_time"]}], "members": [{"query": null}]}`,
		twice[:len(twice)-1] + ", " + twice[strings.Index(twice, `"members"`):],
	}
}

// FuzzBatchBody: no /optimize/batch body panics the handler or gets a
// status outside {200, 400, 413, 429, 503}, and a 200 — collected or
// streamed — answers every member exactly once, with exactly one of
// result and error, never error_code "internal". FuzzBatchDecode holds the
// batch decode to a plain one.
func FuzzBatchBody(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add([]byte(seed))
	}
	ft := newFuzzTarget(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := ft.post(t, "/optimize/batch", body)
		if rec.Code != http.StatusOK {
			return
		}
		var members []BatchMemberResponse
		if rec.Header().Get("Content-Type") == "application/x-ndjson" {
			sc := bufio.NewScanner(rec.Body)
			sc.Buffer(nil, 64<<20)
			for sc.Scan() {
				var m BatchMemberResponse
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
				}
				members = append(members, m)
			}
		} else {
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("bad batch response: %v", err)
			}
			if members = resp.Members; len(members) != resp.Stats.Members {
				t.Fatalf("%d member responses for %d members", len(members), resp.Stats.Members)
			}
		}
		seen := make([]bool, len(members))
		for _, m := range members {
			if m.Member < 0 || m.Member >= len(members) || seen[m.Member] {
				t.Fatalf("member index %d out of range or answered twice (%d members)", m.Member, len(members))
			}
			seen[m.Member] = true
			if (m.Result != nil) == (m.Error != "") || (m.Error != "") != (m.ErrorCode != "") || m.ErrorCode == CodeInternal {
				t.Fatalf("member %d: want exactly one of result and a non-internal error+code: %+v", m.Member, m)
			}
		}
	})
}

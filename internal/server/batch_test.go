package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"moqo"
	"moqo/internal/core"
)

// postBatch sends a batch request and decodes the collected response.
func postBatch(t *testing.T, ts *httptest.Server, body string) (int, BatchResponse, string) {
	t.Helper()
	res, err := http.Post(ts.URL+"/optimize/batch", "application/json", bytes.NewBufferString(body))
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

// tpchBatch is a mixed workload over the shared TPC-H catalog: a base
// member, an exact duplicate, a re-weight, a different query, and an
// inline query against the TPC-H tables.
const tpchBatch = `{
	"members": [
		{"tpch": 3, "alpha": 1.5,
		 "objectives": ["total_time", "buffer_footprint", "energy"],
		 "weights": {"total_time": 1, "buffer_footprint": 0.1, "energy": 0.3}},
		{"tpch": 3, "alpha": 1.5,
		 "objectives": ["total_time", "buffer_footprint", "energy"],
		 "weights": {"total_time": 1, "buffer_footprint": 0.1, "energy": 0.3}},
		{"tpch": 3, "alpha": 1.5,
		 "objectives": ["total_time", "buffer_footprint", "energy"],
		 "weights": {"total_time": 0.2, "buffer_footprint": 1, "energy": 0.5}},
		{"tpch": 5, "alpha": 1.5,
		 "objectives": ["total_time", "energy"],
		 "weights": {"total_time": 1, "energy": 0.2}},
		{"query": {
			"name": "chain",
			"relations": [
				{"table": "customer", "filter_sel": 0.2},
				{"table": "orders", "filter_sel": 0.5}
			],
			"joins": [{"left": 1, "right": 0, "left_col": "o_custkey", "right_col": "c_custkey", "selectivity": 0.0000066}]
		 },
		 "algorithm": "exa",
		 "objectives": ["total_time", "buffer_footprint"],
		 "weights": {"total_time": 1, "buffer_footprint": 0.1}}
	]
}`

// memberAsOptimize rewrites one tpchBatch member as a standalone
// /optimize body (the batch is TPC-H mode, so the member body IS a valid
// standalone request).
func memberAsOptimize(t *testing.T, i int) string {
	t.Helper()
	var wire BatchRequest
	if err := json.Unmarshal([]byte(tpchBatch), &wire); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(wire.Members[i])
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBatchRoundTrip: a mixed batch answers every member in member order,
// and each answer is byte-identical to the member's standalone /optimize
// answer — the endpoint-level differential.
func TestBatchRoundTrip(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, resp, raw := postBatch(t, ts, tpchBatch)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Stats.Members != 5 || resp.Stats.Errors != 0 {
		t.Fatalf("stats = %+v, want 5 members, 0 errors", resp.Stats)
	}
	for i, m := range resp.Members {
		if m.Member != i {
			t.Errorf("member %d reported index %d", i, m.Member)
		}
		if m.Error != "" || m.Result == nil {
			t.Fatalf("member %d failed: %s", i, m.Error)
		}
		if len(m.Result.Plan) == 0 {
			t.Errorf("member %d: no plan", i)
		}
	}

	// Differential against a fresh server with no batch sharing, over the
	// TPC-H members; TestLifecycleEquivalence replays an inline query over
	// the TPC-H catalog, and the library-level differential inline shapes.
	solo := newTestServer(t, Options{})
	for i := 0; i < 4; i++ {
		st, one, sraw := post(t, solo, memberAsOptimize(t, i))
		if st != http.StatusOK {
			t.Fatalf("standalone member %d: status %d: %s", i, st, sraw)
		}
		got := resp.Members[i].Result
		if !bytes.Equal(compactJSON(t, got.Plan), compactJSON(t, one.Plan)) {
			t.Errorf("member %d: batch plan differs from standalone plan", i)
		}
		for o, c := range one.Cost {
			if got.Cost[o] != c {
				t.Errorf("member %d: cost[%s] = %v, want %v", i, o, got.Cost[o], c)
			}
		}
	}
}

// compactJSON strips response indentation so plans can be compared across
// nesting depths (the encoder indents relative to the embedding document).
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact plan: %v\n%s", err, raw)
	}
	return buf.Bytes()
}

// TestBatchDedupeAndReuse: the duplicate member is a cache hit of the
// leader's single dynamic program, and the re-weight member is served
// from the leader's frontier snapshot.
func TestBatchDedupeAndReuse(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, resp, raw := postBatch(t, ts, tpchBatch)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if !resp.Members[1].Result.Cached {
		t.Error("duplicate member not served from the leader's stored result")
	}
	if !resp.Members[2].Result.Stats.ReusedFrontier {
		t.Error("re-weight member not served from the frontier snapshot")
	}
	m := metrics(t, ts)
	if m.Requests.Batch != 1 || m.Requests.BatchMembers != 5 {
		t.Errorf("batch counters = %d/%d, want 1/5", m.Requests.Batch, m.Requests.BatchMembers)
	}
}

// TestBatchSharedMemoOnWire: overlapping-but-distinct members (a chain
// and its extension over one inline catalog) traffic the batch's shared
// memo, and the response surfaces the sharing in its stats.
func TestBatchSharedMemoOnWire(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := `{
		"catalog": {
			"tables": [
				{"name": "a", "rows": 100000, "width": 64, "pk": "id"},
				{"name": "b", "rows": 400000, "width": 64, "pk": "id"},
				{"name": "c", "rows": 900000, "width": 64, "pk": "id"},
				{"name": "d", "rows": 50000, "width": 64, "pk": "id"}
			]
		},
		"members": [
			{"query": {
				"name": "chain3",
				"relations": [{"table": "a"}, {"table": "b"}, {"table": "c"}],
				"joins": [
					{"left": 0, "right": 1, "left_col": "id", "right_col": "a_id", "selectivity": 0.00001},
					{"left": 1, "right": 2, "left_col": "id", "right_col": "b_id", "selectivity": 0.0000025}
				]
			 },
			 "algorithm": "exa",
			 "objectives": ["total_time", "buffer_footprint"],
			 "weights": {"total_time": 1, "buffer_footprint": 0.1}},
			{"query": {
				"name": "chain4",
				"relations": [{"table": "a"}, {"table": "b"}, {"table": "c"}, {"table": "d"}],
				"joins": [
					{"left": 0, "right": 1, "left_col": "id", "right_col": "a_id", "selectivity": 0.00001},
					{"left": 1, "right": 2, "left_col": "id", "right_col": "b_id", "selectivity": 0.0000025},
					{"left": 0, "right": 3, "left_col": "d_id", "right_col": "id", "selectivity": 0.00002}
				]
			 },
			 "algorithm": "exa",
			 "objectives": ["total_time", "buffer_footprint"],
			 "weights": {"total_time": 1, "buffer_footprint": 0.1}}
		]
	}`
	status, resp, raw := postBatch(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Stats.Errors != 0 {
		t.Fatalf("member errors: %s", raw)
	}
	if resp.Stats.SharedSubproblems == 0 {
		t.Error("batch published no shared subproblems")
	}
	// The chain's every non-singleton connected subset ({a,b}, {b,c},
	// {a,b,c}) is shared with the extension. The two run side by side and
	// each of the three is solved once, by whichever member gets to it
	// first, and served to the other: three hits between them, however
	// the sets fall.
	if resp.Stats.SharedHits != 3 {
		t.Errorf("shared hits = %d, want 3", resp.Stats.SharedHits)
	}
	if s := resp.Members[0].Result.Stats.SharedMemoHits + resp.Members[1].Result.Stats.SharedMemoHits; s != 3 {
		t.Errorf("members' shared_memo_hits sum to %d, want 3", s)
	}
}

// TestBatchStream: stream mode emits NDJSON — one member response per
// line, every member exactly once.
func TestBatchStream(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := `{"stream": true,` + tpchBatch[1:]
	res, err := http.Post(ts.URL+"/optimize/batch", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	seen := make(map[int]int)
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var m BatchMemberResponse
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Text())
		}
		if m.Error != "" {
			t.Errorf("member %d: %s", m.Member, m.Error)
		}
		seen[m.Member]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if seen[i] != 1 {
			t.Errorf("member %d emitted %d times", i, seen[i])
		}
	}
}

// TestBatchMemberErrorsAreIndependent: an invalid member fails alone with
// its index; the valid members are answered normally.
func TestBatchMemberErrorsAreIndependent(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := `{
		"members": [
			{"tpch": 3, "objectives": ["total_time"], "weights": {"total_time": 1}},
			{"tpch": 3, "objectives": ["latency"]},
			{"objectives": ["total_time"]},
			{"tpch": 5, "objectives": ["total_time"], "weights": {"total_time": 1}}
		]
	}`
	status, resp, raw := postBatch(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	if resp.Stats.Errors != 2 {
		t.Fatalf("stats.errors = %d, want 2: %s", resp.Stats.Errors, raw)
	}
	for _, i := range []int{1, 2} {
		if resp.Members[i].Error == "" || resp.Members[i].Result != nil {
			t.Errorf("invalid member %d did not fail alone: %+v", i, resp.Members[i])
		}
	}
	for _, i := range []int{0, 3} {
		if resp.Members[i].Error != "" || resp.Members[i].Result == nil {
			t.Errorf("valid member %d failed: %s", i, resp.Members[i].Error)
		}
	}
}

// TestBatchEnvelopeValidation: batch-level problems are 400s.
func TestBatchEnvelopeValidation(t *testing.T) {
	ts := newTestServer(t, Options{})
	bad := map[string]string{
		"no members":       `{}`,
		"empty members":    `{"members": []}`,
		"bad catalog":      `{"catalog": {"tables": []}, "members": [{"objectives": ["total_time"]}]}`,
		"bad scale factor": `{"scale_factor": -1, "members": [{"tpch": 3, "objectives": ["total_time"]}]}`,
		"unknown field":    `{"members": [], "wat": 1}`,
		"bad json":         `{`,
	}
	for name, body := range bad {
		status, _, raw := postBatch(t, ts, body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, status, raw)
		}
	}

	// tpch members are only meaningful against the TPC-H catalog; with an
	// inline catalog the member fails (member-level, batch still 200).
	status, resp, raw := postBatch(t, ts, `{
		"catalog": {"tables": [{"name": "t", "rows": 10, "width": 8}]},
		"members": [{"tpch": 3, "objectives": ["total_time"]}]
	}`)
	if status != http.StatusOK {
		t.Fatalf("tpch-with-inline-catalog: status %d: %s", status, raw)
	}
	if resp.Members[0].Error == "" {
		t.Error("tpch member against an inline catalog did not fail")
	}

	res, err := http.Get(ts.URL + "/optimize/batch")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize/batch: %d", res.StatusCode)
	}
}

// TestBatchWorkerShare: the members of a batch divide the cores between
// them — fan-out across members times fan-out inside one never exceeds the
// machine — and a batch that runs one member at a time keeps them all.
func TestBatchWorkerShare(t *testing.T) {
	for _, c := range []struct{ cpus, inFlight, want int }{
		{8, 0, 8}, {8, 1, 8}, {8, 2, 4}, {8, 3, 2}, {8, 8, 1}, {2, 2, 1}, {2, 3, 1}, {1, 1, 1},
	} {
		if got := workerShare(c.cpus, c.inFlight); got != c.want {
			t.Errorf("workerShare(%d cores, %d in flight) = %d, want %d", c.cpus, c.inFlight, got, c.want)
		}
		if c.inFlight > 0 && c.inFlight <= c.cpus && workerShare(c.cpus, c.inFlight)*c.inFlight > c.cpus {
			t.Errorf("%d members x %d workers oversubscribe %d cores", c.inFlight, workerShare(c.cpus, c.inFlight), c.cpus)
		}
	}
}

// TestBatchBodyMatchesEncoder: a collected body assembled from members
// rendered one by one (renderMember, writeBatch) is byte for byte what a
// json.Encoder with SetIndent("", "  ") writes for the whole
// BatchResponse, and each NDJSON line is its compact json.Encoder line;
// a member that does not encode leaves the body empty, as it leaves the
// encoder's.
func TestBatchBodyMatchesEncoder(t *testing.T) {
	plan := json.RawMessage(`{"operator":"HashJoin","rows":12,"cost":{"total_time":3.5},` +
		`"children":[{"operator":"Scan","relation":"a<b","rows":3,"cost":{}},{"operator":"Scan","relation":"c&d","rows":4,"cost":{"total_time":0}}]}`)
	result := func(k int, frontier bool) *OptimizeResponse {
		r := &OptimizeResponse{
			Algorithm: "rta",
			Plan:      plan,
			Cost:      map[string]float64{"total_time": float64(k) + 0.25, "energy": 1e-9 * float64(k)},
			Stats:     StatsResponse{DurationMs: 0.5 * float64(k), Considered: 100 * k, ReusedFrontier: k%2 == 1},
			Cached:    k%3 == 0,
		}
		if frontier {
			r.Frontier = []map[string]float64{{"total_time": 1, "energy": 2}, {"total_time": 2.5, "energy": 0.125}}
		}
		return r
	}
	failed := func(k int, msg string) BatchMemberResponse {
		return BatchMemberResponse{Member: k, Error: fmt.Sprintf("member %d: %s", k, msg),
			ErrorCode: CodeAdmission, Reason: "rate", RetryAfterMs: int64(k)}
	}
	stats := BatchStatsResponse{Members: 1, Errors: 0, SharedSubproblems: 3, SharedHits: 2, DurationMs: 1.0625}

	one := BatchResponse{Members: []BatchMemberResponse{{Member: 0, Result: result(0, true)}}, Stats: stats}
	twelve := BatchResponse{Stats: stats}
	for k := range 12 {
		switch k % 4 {
		case 0:
			twelve.Members = append(twelve.Members, BatchMemberResponse{Member: k, Result: result(k, true)})
		case 1:
			twelve.Members = append(twelve.Members, BatchMemberResponse{Member: k, Result: result(k, false)})
		case 2:
			twelve.Members = append(twelve.Members, failed(k, `tenant "a<b&c" — quota über <script>`))
		case 3:
			r := result(k, false)
			r.Cost = map[string]float64{}
			twelve.Members = append(twelve.Members, BatchMemberResponse{Member: k, Result: r})
		}
	}
	twelve.Stats.Members, twelve.Stats.Errors = 12, 3
	allFailed := BatchResponse{Members: []BatchMemberResponse{failed(0, `"quoted" & <tagged> ✓`)}, Stats: stats}

	encode := func(v any, indent bool) ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if indent {
			enc.SetIndent("", "  ")
		}
		err := enc.Encode(v)
		return buf.Bytes(), err
	}
	var s Server
	for name, want := range map[string]BatchResponse{"one": one, "twelve": twelve, "failed": allFailed} {
		rendered := make([]*jsonEncoder, len(want.Members))
		for k := range want.Members {
			rendered[k] = renderMember(&want.Members[k], memberEncoders)
			line := renderMember(&want.Members[k], lineEncoders)
			if rendered[k] == nil || line == nil {
				t.Fatalf("%s: member %d did not encode", name, k)
			}
			wantLine, _ := encode(want.Members[k], false)
			if !bytes.Equal(line.buf.Bytes(), wantLine) {
				t.Errorf("%s: member %d line\n%s\nwant\n%s", name, k, line.buf.Bytes(), wantLine)
			}
			line.release()
		}
		rec := httptest.NewRecorder()
		s.writeBatch(rec, rendered, want.Stats)
		wantBody, err := encode(want, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, wantBody) {
			t.Errorf("%s: body\n%s\nwant\n%s", name, got, wantBody)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", name, got)
		}
	}

	// A member that does not encode: no line, and no body at all.
	bad := twelve
	bad.Members = append([]BatchMemberResponse(nil), twelve.Members...)
	r := result(5, false)
	r.Cost["total_time"] = math.Inf(1)
	bad.Members[5].Result = r
	if _, err := encode(bad, true); err == nil {
		t.Fatal("json.Encoder encoded +Inf")
	}
	rendered := make([]*jsonEncoder, len(bad.Members))
	for k := range bad.Members {
		rendered[k] = renderMember(&bad.Members[k], memberEncoders)
		if (rendered[k] == nil) != (k == 5) {
			t.Fatalf("member %d: rendered %v", k, rendered[k] != nil)
		}
	}
	rec := httptest.NewRecorder()
	s.writeBatch(rec, rendered, bad.Stats)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("unencodable member: status %d, body %q; want 200 and no body", rec.Code, rec.Body.Bytes())
	}
}

// serveBatch posts body to a fresh server's /optimize/batch through its
// handler.
func serveBatch(t *testing.T, body string) *httptest.ResponseRecorder {
	t.Helper()
	s := New(Options{})
	t.Cleanup(func() { _ = s.Close() })
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize/batch", strings.NewReader(body)))
	return rec
}

// TestBatchDecodeErrorTexts pins the status and text of bodies that do not
// decode to what a plain decode of the whole body into a BatchRequest
// answers (Server.decode). decodeBatch decodes each member's spec on its
// own, but an error is reported as the whole body's: the field named by its
// path from the body's root, and the first error in document order, whether
// it lies in a spec or around one.
func TestBatchDecodeErrorTexts(t *testing.T) {
	const ok = `{"relations": [{"table": "t0"}, {"table": "t1"}], "joins": [{"left": 0, "right": 1, "left_col": "id", "right_col": "id", "selectivity": 0.5}]}`
	member := func(spec, extra string) string {
		return `{"query": ` + spec + `, "objectives": ["total_time"]` + extra + `}`
	}
	batch := func(members ...string) string {
		return `{"catalog": {"tables": [{"name": "t0", "rows": 10, "width": 8}, {"name": "t1", "rows": 20, "width": 8}]}, ` +
			`"members": [` + strings.Join(members, ", ") + `]}`
	}
	cases := []struct {
		name, body string
		status     int
		want       string
	}{
		{"type error in a spec", batch(member(ok, ""), member(`{"relations": [{"table": 5}]}`, "")), http.StatusBadRequest,
			"decode request: json: cannot unmarshal number into Go struct field RelationSpec.members.query.relations.table of type string"},
		{"unknown field in a spec", batch(member(`{"relations": [{"table": "t0"}], "wat": 1}`, "")), http.StatusBadRequest,
			`decode request: json: unknown field "wat"`},
		{"spec error before a member error", batch(member(`{"relations": [{"table": "t0", "filter_sel": "x"}]}`, ""), member(ok, `, "wat": 1`)), http.StatusBadRequest,
			"decode request: json: cannot unmarshal string into Go struct field RelationSpec.members.query.relations.filter_sel of type float64"},
		{"member error before a spec error", batch(member(ok, `, "workers": "2"`), member(`{"relations": [{"table": 5}]}`, "")), http.StatusBadRequest,
			"decode request: json: cannot unmarshal string into Go struct field BatchMemberRequest.members.workers of type int"},
		{"a spec that is no object", batch(member(`5`, "")), http.StatusBadRequest,
			"decode request: json: cannot unmarshal number into Go struct field BatchMemberRequest.members.query of type server.QuerySpec"},
		{"stream not a bool", `{"stream": "yes", "members": [` + member(ok, "") + `]}`, http.StatusBadRequest,
			"decode request: json: cannot unmarshal string into Go struct field BatchRequest.stream of type bool"},
		{"truncated", batch(member(ok, ""))[:60], http.StatusBadRequest,
			"decode request: unexpected EOF"},
		{"oversized", `{"members": [` + strings.Repeat(" ", maxBatchBody) + `]}`, http.StatusRequestEntityTooLarge,
			"decode request: http: request body too large"},
	}
	for _, tc := range cases {
		rec := serveBatch(t, tc.body)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: %v: %s", tc.name, err, rec.Body.String())
		}
		if rec.Code != tc.status || e.Error != tc.want {
			t.Errorf("%s: %d %q\nwant %d %q", tc.name, rec.Code, e.Error, tc.status, tc.want)
		}
	}
}

// The same four-table chain query, spelled byte for byte as json.Marshal
// writes chainQuery(4, 0.5), and respelt: keys reordered, whitespace added,
// 1 written 1.0 and 0.01 written 1e-2.
const (
	chain4Spec    = `{"name":"chain","relations":[{"table":"t0","filter_sel":0.5},{"table":"t1","filter_sel":1},{"table":"t2","filter_sel":1},{"table":"t3","filter_sel":1}],"joins":[{"left":0,"right":1,"left_col":"id","right_col":"id","selectivity":0.01},{"left":1,"right":2,"left_col":"id","right_col":"id","selectivity":0.01},{"left":2,"right":3,"left_col":"id","right_col":"id","selectivity":0.01}]}`
	chain4Respelt = `{ "joins": [ {"selectivity": 1e-2, "right_col": "id", "left_col": "id", "right": 1, "left": 0},
		{"left": 1, "right": 2, "left_col": "id", "right_col": "id", "selectivity": 0.010},
		{"left": 2, "right": 3, "left_col": "id", "right_col": "id", "selectivity": 0.01} ],
	  "relations": [ {"filter_sel": 0.50, "table": "t0"}, {"table": "t1", "filter_sel": 1.0}, {"table": "t2", "filter_sel": 1}, {"table": "t3", "filter_sel": 1e0} ],
	  "name": "chain" }`
)

// specBatch is an exact batch over chainCatalog(4) with one member per spec,
// each under its own weights.
func specBatch(t testing.TB, specs ...string) string {
	t.Helper()
	cat, err := json.Marshal(chainCatalog(4))
	if err != nil {
		t.Fatal(err)
	}
	members := make([]string, len(specs))
	for i, spec := range specs {
		members[i] = fmt.Sprintf(`{"query": %s, "algorithm": "exa", "objectives": ["total_time", "buffer_footprint"], `+
			`"weights": {"total_time": 1, "buffer_footprint": %g}}`, spec, 0.1*float64(i+1))
	}
	return `{"catalog": ` + string(cat) + `, "members": [` + strings.Join(members, ", ") + `]}`
}

// resolveBatch takes a batch body through the steps handleOptimizeBatch
// takes before its schedule: decodeBatch, the batch catalog, and every
// member's resolve against one dedupe map, which it returns with the
// members.
func resolveBatch(t *testing.T, s *Server, w http.ResponseWriter, r *http.Request) (BatchRequest, []member, map[queryKey]*moqo.Query) {
	t.Helper()
	var wire BatchRequest
	if !s.decodeBatch(w, r, &wire) {
		t.Fatal("the body did not decode")
	}
	cat, _, err := s.catalogFor(wire.Catalog, wire.ScaleFactor, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := make(map[queryKey]*moqo.Query)
	members := make([]member, len(wire.Members))
	for i := range wire.Members {
		view := wire.Members[i].asOptimizeRequest(wire.Catalog)
		if f := s.resolve(&members[i], &view, "", cat, queries); f != nil {
			t.Fatalf("member %d: %v", i, f.err)
		}
	}
	return wire, members, queries
}

// TestBatchInternsQuerySpecs: members whose specs are spelled byte for byte
// alike, or differently but canonically alike, share one decoded spec, build
// one query object and run one dynamic program; distinct specs share none.
func TestBatchInternsQuerySpecs(t *testing.T) {
	chain3, err := json.Marshal(chainQuery(3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(chainQuery(4, 0.5)); string(want) != chain4Spec {
		t.Fatalf("chain4Spec is not chainQuery(4, 0.5): %s", want)
	}
	cases := []struct {
		name   string
		specs  []string
		shared bool
	}{
		{"byte-identical", []string{chain4Spec, chain4Spec, chain4Spec}, true},
		{"respelt", []string{chain4Spec, chain4Respelt, chain4Spec}, true},
		{"distinct", []string{chain4Spec, string(chain3)}, false},
	}
	for _, tc := range cases {
		body := specBatch(t, tc.specs...)
		s := New(Options{})
		wire, members, queries := resolveBatch(t, s, httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, "/optimize/batch", strings.NewReader(body)))
		_ = s.Close()
		for i := 1; i < len(wire.Members); i++ {
			if spec := wire.Members[i].Query == wire.Members[0].Query; spec != tc.shared {
				t.Errorf("%s: member %d shares member 0's spec: %v, want %v", tc.name, i, spec, tc.shared)
			}
			if q := members[i].req.Request().Query == members[0].req.Request().Query; q != tc.shared {
				t.Errorf("%s: member %d shares member 0's query object: %v, want %v", tc.name, i, q, tc.shared)
			}
		}
		want := len(wire.Members)
		if tc.shared {
			want = 1
		}
		if len(queries) != want {
			t.Errorf("%s: %d query objects built, want %d", tc.name, len(queries), want)
		}

		runs := core.EngineRuns()
		if rec := serveBatch(t, body); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		if got := core.EngineRuns() - runs; got != int64(want) {
			t.Errorf("%s: %d dynamic programs, want %d", tc.name, got, want)
		}
	}
}

// batchDecodeAllocBudget bounds the allocations of decoding and resolving a
// batch of twelve members over three distinct specs (a ten-table chain and
// its eight- and six-table prefixes, each spec four times): the body read
// into a pooled buffer, one decode of it with each repeated spec elided,
// one json.Marshal per distinct spelling, the catalog, and each member's
// resolution, with one query built per distinct spec: 418 measured on
// go1.24. Decoding an envelope of placeholders and each distinct spelling
// on its own took 456; keeping a copy of each member's spec bytes, as the
// envelope did before the structural pass, took 484; decoding every
// member's own spec and marshaling it again for a dedupe key took 728.
const batchDecodeAllocBudget = 460

// sizingBatch is the body TestBatchDecodeAllocs and BenchmarkBatchDecode
// decode: twelve exact members over chainCatalog(10), their specs a
// ten-table chain and its eight- and six-table prefixes, each four times.
func sizingBatch(tb testing.TB) []byte {
	tb.Helper()
	var wire BatchRequest
	wire.Catalog = chainCatalog(10)
	for i := range 12 {
		wire.Members = append(wire.Members, BatchMemberRequest{
			Query: chainQuery(10-2*(i%3), 0.5), Algorithm: "exa", Objectives: []string{"total_time", "buffer_footprint"},
			Weights: map[string]float64{"total_time": 1, "buffer_footprint": 0.1 * float64(i+1)},
		})
	}
	body, err := json.Marshal(wire)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestBatchDecodeAllocs holds a batch's work before its first dynamic
// program (resolveBatch) to batchDecodeAllocBudget.
func TestBatchDecodeAllocs(t *testing.T) {
	body := sizingBatch(t)
	s := New(Options{})
	defer s.Close()
	r := httptest.NewRequest(http.MethodPost, "/optimize/batch", nil)
	w := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(50, func() {
		r.Body = io.NopCloser(bytes.NewReader(body))
		if _, _, queries := resolveBatch(t, s, w, r); len(queries) != 3 {
			t.Fatalf("%d query objects, want 3", len(queries))
		}
	})
	t.Logf("decode and resolve of a %d-byte, 12-member, 3-spec batch: %.0f allocations (budget %d)", len(body), allocs, batchDecodeAllocBudget)
	if allocs > batchDecodeAllocBudget {
		t.Errorf("%.0f allocations, budget %d", allocs, batchDecodeAllocBudget)
	}
}

// BenchmarkBatchDecode times decodeBatch alone on sizingBatch's body:
// go test -run '^$' -bench BatchDecode ./internal/server.
func BenchmarkBatchDecode(b *testing.B) {
	body := sizingBatch(b)
	s := New(Options{})
	defer s.Close()
	r := httptest.NewRequest(http.MethodPost, "/optimize/batch", nil)
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r.Body = io.NopCloser(bytes.NewReader(body))
		var wire BatchRequest
		if !s.decodeBatch(w, r, &wire) || len(wire.Members) != 12 {
			b.Fatalf("the body did not decode: %s", w.Body.String())
		}
	}
}

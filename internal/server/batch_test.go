package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
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

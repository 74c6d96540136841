package server

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	// One member at a time: run side by side, the two dynamic programs
	// solve their common subsets concurrently and how many the slower one
	// finds published is a race (two of three, about one run in three).
	body := `{
		"parallel": 1,
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
	// The chain's every non-singleton connected prefix subset ({a,b},
	// {b,c}, {a,b,c}) is shared with the extension, which is scheduled
	// first (most expensive first); the chain, run after it, hits them all.
	if resp.Stats.SharedHits < 3 {
		t.Errorf("shared hits = %d, want >= 3", resp.Stats.SharedHits)
	}
	if s := resp.Members[0].Result.Stats.SharedMemoHits + resp.Members[1].Result.Stats.SharedMemoHits; s < 3 {
		t.Errorf("members' shared_memo_hits sum to %d, want >= 3", s)
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

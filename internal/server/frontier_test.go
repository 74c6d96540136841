package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// frontierField returns the compacted "frontier" member of a response body,
// and whether the body has one at all.
func frontierField(t *testing.T, raw []byte) ([]byte, bool) {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	f, ok := fields["frontier"]
	if !ok {
		return nil, false
	}
	return compactJSON(t, f), true
}

// withFrontierFlag sets "frontier" on a JSON request body.
func withFrontierFlag(body string, on bool) string {
	return fmt.Sprintf(`{"frontier": %v,`, on) + body[1:]
}

// boundedIRARequest is a q3 IRA request under a buffer_footprint bound.
func boundedIRARequest(bound float64) string {
	return fmt.Sprintf(`{
		"tpch": 3, "alpha": 1.5, "algorithm": "ira",
		"objectives": ["total_time", "buffer_footprint", "energy"],
		"weights": {"total_time": 1, "energy": 0.3},
		"bounds": {"buffer_footprint": %g}
	}`, bound)
}

// TestFrontierOnRequest: the frontier is rendered for a request that asks
// for it, on every route, and for no other. One request sequence — cold, a
// memory hit, a store hit, a store hit after a restart, a seeded IRA
// refinement, then a batch — runs on two servers, each over a store of its
// own and a frontier tier of one entry. On the first every request sets
// "frontier": true, and its frontier must be the bytes a cold run of the
// same body renders; on the second none does, and no answer may carry the
// key. Everything else in the two answers is the same, and so is
// frontier_cache.snapshot_bytes after every step: a frontier rendered for a
// response is not kept with the tier's entry.
func TestFrontierOnRequest(t *testing.T) {
	cold := newTestServer(t, Options{FrontierCacheCapacity: -1}) // every answer a cold run
	coldFrontier := func(body string) []byte {
		t.Helper()
		status, _, raw := post(t, cold, withFrontierFlag(body, true))
		if status != http.StatusOK {
			t.Fatalf("cold reference: status %d: %s", status, raw)
		}
		f, ok := frontierField(t, []byte(raw))
		if !ok || len(f) < 3 {
			t.Fatalf("cold reference carries no frontier: %s", raw)
		}
		return f
	}

	flags := []bool{true, false}
	dirs := []string{t.TempDir(), t.TempDir()}
	servers := make([]*httptest.Server, len(flags))
	stops := make([]func(), len(flags))
	start := func() {
		for k, dir := range dirs {
			opts := storeOpts(dir)
			opts.FrontierCacheCapacity, opts.CacheShards = 1, 1
			servers[k], stops[k] = newTestServerC(t, opts)
		}
	}
	start()

	// The tight bound is one the loose IRA's coarse snapshot cannot
	// certify, so its frontier-tier hit refines, and writes the finer
	// snapshot through.
	_, loose, raw := post(t, cold, boundedIRARequest(1e12))
	if loose.Cost == nil {
		t.Fatalf("loose IRA failed: %s", raw)
	}
	tight := boundedIRARequest(0.9 * loose.Cost["buffer_footprint"])

	type delta func(before, after MetricsResponse) bool
	storeWrite := func(b, a MetricsResponse) bool { return a.FrontierStore.Writes == b.FrontierStore.Writes+1 }
	storeHit := func(b, a MetricsResponse) bool { return a.FrontierStore.Hits == b.FrontierStore.Hits+1 }
	steps := []struct {
		route   string
		restart bool
		body    string
		took    delta
	}{
		{route: "cold", body: reweightRequest(1), took: storeWrite},
		{route: "memory hit", body: reweightRequest(2), took: func(b, a MetricsResponse) bool {
			return a.FrontierCache.Hits == b.FrontierCache.Hits+1
		}},
		{route: "cold, second shape", body: q3Request, took: storeWrite},
		{route: "store hit", body: reweightRequest(3), took: storeHit},
		{route: "store hit after a restart", restart: true, body: reweightRequest(1), took: storeHit},
		{route: "cold IRA", body: boundedIRARequest(1e12), took: storeWrite},
		{route: "seeded IRA refinement", body: tight, took: func(b, a MetricsResponse) bool {
			return storeWrite(b, a) && a.FrontierCache.ReweightServed == b.FrontierCache.ReweightServed+1
		}},
	}
	for _, step := range steps {
		if step.restart {
			for _, stop := range stops {
				stop()
			}
			start()
		}
		want := coldFrontier(step.body)
		var answers [2]OptimizeResponse
		var bytesAfter [2]int64
		for k, on := range flags {
			before := metrics(t, servers[k])
			status, resp, raw := post(t, servers[k], withFrontierFlag(step.body, on))
			if status != http.StatusOK {
				t.Fatalf("%s (frontier %v): status %d: %s", step.route, on, status, raw)
			}
			after := metrics(t, servers[k])
			if !step.took(before, after) {
				t.Fatalf("%s (frontier %v): the request did not take the route", step.route, on)
			}
			got, has := frontierField(t, []byte(raw))
			switch {
			case on && !bytes.Equal(got, want):
				t.Errorf("%s: frontier differs from a cold run's:\n%s\nvs\n%s", step.route, got, want)
			case !on && has:
				t.Errorf("%s: an answer without \"frontier\": true carries the key: %s", step.route, got)
			}
			answers[k], bytesAfter[k] = resp, after.FrontierCache.SnapshotBytes
		}
		sameAnswer(t, step.route, answers[0], answers[1])
		if answers[0].Cached != answers[1].Cached || answers[0].Stats.ReusedFrontier != answers[1].Stats.ReusedFrontier {
			t.Errorf("%s: the frontier flag changed how the request was served", step.route)
		}
		if bytesAfter[0] != bytesAfter[1] {
			t.Errorf("%s: snapshot_bytes %d with the frontier, %d without", step.route, bytesAfter[0], bytesAfter[1])
		}
	}

	// Batch members: each renders its own frontier, or none.
	members := []string{reweightRequest(5), q3Request, tight}
	for k, on := range flags {
		specs := make([]string, len(members))
		for i, body := range members {
			specs[i] = withFrontierFlag(body, on)
		}
		status, _, raw := postBatch(t, servers[k], `{"members": [`+strings.Join(specs, ",")+`]}`)
		if status != http.StatusOK {
			t.Fatalf("batch (frontier %v): status %d: %s", on, status, raw)
		}
		var resp struct {
			Members []struct{ Result json.RawMessage }
		}
		if err := json.Unmarshal([]byte(raw), &resp); err != nil {
			t.Fatal(err)
		}
		for i, m := range resp.Members {
			got, has := frontierField(t, m.Result)
			switch {
			case on && !bytes.Equal(got, coldFrontier(members[i])):
				t.Errorf("batch member %d: frontier differs from a cold run's", i)
			case !on && has:
				t.Errorf("batch member %d: an answer without \"frontier\": true carries the key", i)
			}
		}
	}
}

// TestFrontierOnRequestConcurrent: results that share one snapshot's trees
// are rendered by the goroutines serving them, concurrently. Two shapes
// alternate over a frontier tier of one entry and a store, so concurrent
// requests mix memory hits, store hits and coalesced fills; every answer's
// frontier must still be the bytes a cold run renders. Run with -race.
func TestFrontierOnRequestConcurrent(t *testing.T) {
	cold := newTestServer(t, Options{FrontierCacheCapacity: -1})
	opts := storeOpts(t.TempDir())
	opts.FrontierCacheCapacity, opts.CacheShards = 1, 1
	ts := newTestServer(t, opts)
	shapes := []string{reweightRequest(1), q3Request}
	want := make([][]byte, len(shapes))
	for i, body := range shapes {
		_, _, raw := post(t, cold, withFrontierFlag(body, true))
		want[i], _ = frontierField(t, []byte(raw))
		post(t, ts, body) // cold run: writes the shape through to the store
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	got := make([][]byte, goroutines*rounds)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := g*rounds + r
				res, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(withFrontierFlag(shapes[i%2], true)))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				raw, err := io.ReadAll(res.Body)
				res.Body.Close()
				if err != nil || res.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d, %v: %s", i, res.StatusCode, err, raw)
					return
				}
				got[i] = raw
			}
		}()
	}
	wg.Wait()
	for i, raw := range got {
		if raw == nil {
			continue
		}
		if f, _ := frontierField(t, raw); !bytes.Equal(f, want[i%2]) {
			t.Errorf("request %d: frontier differs from a cold run's:\n%s\nvs\n%s", i, f, want[i%2])
		}
	}
	if m := metrics(t, ts); m.FrontierStore.Hits == 0 {
		t.Errorf("no request was a store hit: %+v", m.FrontierStore)
	}
}

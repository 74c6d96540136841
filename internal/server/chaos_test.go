package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"moqo/internal/core"
	"moqo/internal/fault"
	"moqo/internal/tenant"
)

// chaos_test.go is the chaos suite: randomized disk-fault schedules,
// dead disks, contained panics, load shedding, and shutdown races. The
// governing invariant is differential — a server under injected faults
// may refuse a request, but every answer it does return is bit-identical
// to the fault-free answer. Errors are allowed; wrong answers are not.

// chaosShapes is the request mix the differential tests replay: cold
// dynamic programs (distinct selectivities are distinct FrontierKeys),
// exact repeats (cache hits), and re-weights of known shapes (frontier
// tier / store hits). Indexes into the slice give the replay order.
func chaosShapes() []string {
	var reqs []string
	for i := 0; i < 4; i++ {
		sel := 0.2 + 0.15*float64(i)
		reqs = append(reqs,
			chainBody(6, sel, "rta", map[string]float64{"total_time": 1}),
			chainBody(6, sel, "rta", map[string]float64{"total_time": 1}),                        // exact repeat
			chainBody(6, sel, "rta", map[string]float64{"total_time": 1, "buffer_footprint": 2}), // re-weight
		)
	}
	reqs = append(reqs, chainBody(8, 0.5, "exa", map[string]float64{"total_time": 1}))
	return reqs
}

// chaosAnswer is the answer-content projection compared by the
// differential: everything the optimizer determines, nothing about how
// the serving tiers happened to produce it (cached / reused_frontier /
// durations legitimately differ when a disk fault forces a recompute).
type chaosAnswer struct {
	Algorithm string
	Plan      string
	Cost      map[string]float64
	Frontier  []map[string]float64
}

func toChaosAnswer(r OptimizeResponse) chaosAnswer {
	return chaosAnswer{Algorithm: r.Algorithm, Plan: string(r.Plan), Cost: r.Cost, Frontier: r.Frontier}
}

// waitFor polls cond every millisecond until it holds; the test fails if
// it has not within timeout.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// decodeErrResp decodes a non-2xx body.
func decodeErrResp(t *testing.T, raw string) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal([]byte(raw), &e); err != nil {
		t.Fatalf("decode error body %q: %v", raw, err)
	}
	return e
}

// TestChaosDifferentialDiskFaults: replay one request stream against a
// fault-free reference and against servers whose frontier store runs on
// a fault-injected filesystem (write/read/sync/open/rename errors,
// ENOSPC, short writes — a new deterministic schedule per seed). Store
// faults must never fail a request (the store is a best-effort tier
// behind two memory tiers) and every answer must match the reference
// bit for bit.
func TestChaosDifferentialDiskFaults(t *testing.T) {
	reference := make(map[string]chaosAnswer)
	ref := newTestServer(t, Options{})
	for _, body := range chaosShapes() {
		status, resp, raw := post(t, ref, body)
		if status != http.StatusOK {
			t.Fatalf("reference request failed (%d): %s", status, raw)
		}
		reference[body] = toChaosAnswer(resp)
	}

	for seed := uint64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := fault.NewInjector(nil, fault.Config{
				Seed:        seed,
				PWriteErr:   0.3,
				PReadErr:    0.3,
				PSyncErr:    0.3,
				PRenameErr:  0.5,
				PENOSPC:     0.5,
				PShortWrite: 0.3,
			})
			svc, err := NewE(Options{
				StorePath:       t.TempDir(),
				StoreFS:         inj,
				BreakerCooldown: time.Millisecond,
			})
			if err != nil {
				// Fail-stop at startup on an injected open/recovery fault
				// is correct behavior, just not an interesting run.
				if fault.IsInjected(err) {
					t.Logf("startup fail-stop under schedule (tolerated): %v", err)
					return
				}
				t.Fatalf("NewE under faults: %v", err)
			}
			ts := httptest.NewServer(svc.Handler())
			defer func() {
				ts.Close()
				if err := svc.Close(); err != nil {
					t.Logf("close under faults (tolerated): %v", err)
				}
			}()

			for i, body := range chaosShapes() {
				status, resp, raw := post(t, ts, body)
				if status != http.StatusOK {
					t.Fatalf("request %d failed under store faults (%d): %s — store faults must never fail serving", i, status, raw)
				}
				if got, want := toChaosAnswer(resp), reference[body]; !reflect.DeepEqual(got, want) {
					t.Errorf("request %d: answer under faults differs from fault-free answer:\n got %+v\nwant %+v", i, got, want)
				}
			}
			c := inj.Counters()
			var injected uint64
			for _, n := range c.Injected {
				injected += n
			}
			if injected == 0 {
				t.Errorf("chaos schedule injected no faults (ops=%v) — the test exercised nothing", c.Ops)
			}
		})
	}
}

// TestChaosDifferentialRestart: crash-shaped chaos across a restart.
// A first server absorbs the stream under write faults, is closed, and
// a second server reopens the same damaged store directory fault-free.
// Recovery may drop torn or unreachable snapshots (misses), but
// everything it serves from disk must match the reference.
func TestChaosDifferentialRestart(t *testing.T) {
	reference := make(map[string]chaosAnswer)
	ref := newTestServer(t, Options{})
	for _, body := range chaosShapes() {
		status, resp, _ := post(t, ref, body)
		if status != http.StatusOK {
			t.Fatal("reference request failed")
		}
		reference[body] = toChaosAnswer(resp)
	}

	// Find a schedule whose faults spare store creation (fail-stop at
	// startup is legal but uninteresting here — the point is damage
	// accumulated while running).
	var (
		dir string
		inj *fault.Injector
		svc *Server
	)
	for seed := uint64(40); seed < 60; seed++ {
		dir = t.TempDir()
		inj = fault.NewInjector(nil, fault.Config{
			Seed: seed, PWriteErr: 0.4, PSyncErr: 0.4, PENOSPC: 0.5, PShortWrite: 0.5,
		})
		s, err := NewE(Options{StorePath: dir, StoreFS: inj, BreakerCooldown: time.Millisecond})
		if err == nil {
			svc = s
			break
		}
		if !fault.IsInjected(err) {
			t.Fatal(err)
		}
	}
	if svc == nil {
		t.Fatal("no seed in [40,60) let the store open — schedule too hostile")
	}
	ts := httptest.NewServer(svc.Handler())
	for _, body := range chaosShapes() {
		if status, _, raw := post(t, ts, body); status != http.StatusOK {
			t.Fatalf("request failed under faults (%d): %s", status, raw)
		}
	}
	ts.Close()
	_ = svc.Close() // sync may fail under the schedule; recovery handles it

	// Restart on the damaged directory with a healthy disk.
	svc2, err := NewE(Options{StorePath: dir})
	if err != nil {
		t.Fatalf("reopen damaged store: %v", err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer func() {
		ts2.Close()
		if err := svc2.Close(); err != nil {
			t.Errorf("close restarted server: %v", err)
		}
	}()
	for i, body := range chaosShapes() {
		status, resp, raw := post(t, ts2, body)
		if status != http.StatusOK {
			t.Fatalf("request %d failed after restart (%d): %s", i, status, raw)
		}
		if got, want := toChaosAnswer(resp), reference[body]; !reflect.DeepEqual(got, want) {
			t.Errorf("request %d: answer after damaged-store restart differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestChaosDeadDiskBreaker: kill the disk entirely under a breaker and
// the server must keep answering every request from memory, report
// itself degraded (alive on /healthz, not ready on /readyz), and close
// the breaker again once the disk recovers.
func TestChaosDeadDiskBreaker(t *testing.T) {
	inj := fault.NewInjector(nil, fault.Config{Seed: 7})
	svc, err := NewE(Options{
		StorePath:        t.TempDir(),
		StoreFS:          inj,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	// Healthy warm-up, then the disk dies.
	if status, _, raw := post(t, ts, chainBody(6, 0.3, "rta", map[string]float64{"total_time": 1})); status != http.StatusOK {
		t.Fatalf("warm-up failed (%d): %s", status, raw)
	}
	inj.SetDead(true)

	// Every request through the dead disk must still be answered: cold
	// shapes (store lookup + write-through both fail), repeats, and
	// re-weights. The failures trip the breaker.
	for i := 0; i < 6; i++ {
		sel := 0.35 + 0.05*float64(i)
		if status, _, raw := post(t, ts, chainBody(6, sel, "rta", map[string]float64{"total_time": 1})); status != http.StatusOK {
			t.Fatalf("request %d failed on dead disk (%d): %s — must serve memory-only", i, status, raw)
		}
	}
	if st := svc.tiers.disk.breaker.State(); st != fault.Open {
		t.Fatalf("breaker state %v after dead-disk traffic, want Open", st)
	}

	// Liveness stays 200 (restarting would not fix the disk); readiness
	// flips to 503 so a balancer can prefer full-capacity replicas.
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !h.Degraded || h.Status != "degraded" || h.Store != "degraded" {
		t.Fatalf("healthz on dead disk: status %d, body %+v; want 200 + degraded", res.StatusCode, h)
	}
	res, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on dead disk: status %d, want 503", res.StatusCode)
	}

	// While open, the breaker keeps traffic off the device: ops stop
	// growing (modulo one half-open probe per cooldown window).
	m := metrics(t, ts)
	if m.FrontierStore.Breaker == nil || m.FrontierStore.Breaker.Trips == 0 {
		t.Fatalf("breaker stats missing from /metrics: %+v", m.FrontierStore)
	}
	if m.FrontierStore.Skipped == 0 {
		t.Error("no store operations skipped while breaker open")
	}

	// Disk recovers: after the cooldown a half-open probe succeeds and
	// the breaker closes.
	inj.SetDead(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sel := 0.8 + 0.01*float64(time.Now().UnixNano()%100) // distinct cold shapes force store traffic
		post(t, ts, chainBody(6, sel, "rta", map[string]float64{"total_time": 1}))
		if svc.tiers.disk.breaker.State() == fault.Closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker did not close after disk recovery: %+v", svc.tiers.disk.breaker.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: status %d, want 200", res.StatusCode)
	}
}

// TestChaosWorkerPanicEndToEnd: a panic inside the optimizer's worker
// pool fails exactly that request with a structured 500, is never
// cached, and the next identical request succeeds — the pool and the
// process survive.
func TestChaosWorkerPanicEndToEnd(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := chainBody(6, 0.5, "rta", map[string]float64{"total_time": 1})

	core.SetPanicHook(func(id int32) {
		if id == 5 {
			panic("chaos: injected worker panic")
		}
	})
	defer core.SetPanicHook(nil)

	status, _, raw := post(t, ts, body)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d under worker panic, want 500: %s", status, raw)
	}
	e := decodeErrResp(t, raw)
	if e.Code != CodeInternal {
		t.Errorf("error code %q, want %q", e.Code, CodeInternal)
	}
	if bytes.Contains([]byte(e.Error), []byte("goroutine")) {
		t.Errorf("500 body leaks a stack trace: %s", e.Error)
	}

	// The crash was contained: same request, no hook, full answer — and
	// the failed attempt must not have poisoned the cache.
	core.SetPanicHook(nil)
	status, resp, raw := post(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("request after contained panic failed (%d): %s", status, raw)
	}
	if resp.Cached {
		t.Error("failed run was cached — panics must never populate the cache")
	}
	if m := metrics(t, ts); m.Requests.Panics == 0 {
		t.Error("panics counter not incremented")
	}
}

// TestChaosHandlerPanicRecovered: the recovery middleware turns a
// handler panic into a structured 500 and the handler chain keeps
// serving; http.ErrAbortHandler passes through untouched per the
// net/http contract.
func TestChaosHandlerPanicRecovered(t *testing.T) {
	s := New(Options{})
	calls := 0
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("chaos: handler crash")
		}
		w.WriteHeader(http.StatusOK)
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d under handler panic, want 500", rec.Code)
	}
	if e := decodeErrResp(t, rec.Body.String()); e.Code != CodeInternal {
		t.Errorf("error code %q, want %q", e.Code, CodeInternal)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("handler chain dead after contained panic: status %d", rec.Code)
	}

	// ErrAbortHandler must propagate (net/http uses it to abort the
	// connection without a reply).
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler swallowed by the recovery middleware")
		}
	}()
	h2 := s.recoverPanics(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	h2.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
}

// wedgedServer is a default server — fair scheduler, no policy option —
// with one cold-DP slot, set up for the shed tests: the warm shape's plan
// and frontier are cached, then the slot is held, so every cold arrival
// queues in acquireCold, the one place moqod queues anything. With
// maxQueue 1, one cold request is parked there as well and the queue is
// full. free releases the slot; a parked request must then drain with 200.
type wedgedServer struct {
	svc  *Server
	ts   *httptest.Server
	free func()
}

// Shapes of the shed tests: warm is cached before the wedge, parked fills
// the queue, cold is the arrival that is shed.
const warmSel, parkedSel, coldSel = 0.3, 0.5, 0.4

var (
	warmWeights     = map[string]float64{"total_time": 1}
	reweightWeights = map[string]float64{"total_time": 1, "buffer_footprint": 2}
)

func newWedgedServer(t *testing.T, maxQueue int) *wedgedServer {
	t.Helper()
	svc, err := NewE(Options{MaxColdDPs: 1, MaxQueueDepth: maxQueue})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	if status, _, raw := post(t, ts, chainBody(5, warmSel, "rta", warmWeights)); status != http.StatusOK {
		t.Fatalf("warm-up failed (%d): %s", status, raw)
	}
	release, err := svc.acquireCold(t.Context(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	var parked chan int
	if maxQueue > 0 {
		parked = make(chan int, 1)
		go func() {
			res, err := http.Post(ts.URL+"/optimize", "application/json",
				bytes.NewBufferString(chainBody(5, parkedSel, "rta", warmWeights)))
			if err != nil {
				parked <- 0
				return
			}
			_ = res.Body.Close()
			parked <- res.StatusCode
		}()
		waitFor(t, 5*time.Second, "the parked request to reach the scheduler queue",
			func() bool { return svc.sched.Queued() == maxQueue })
	}
	return &wedgedServer{svc: svc, ts: ts, free: func() {
		t.Helper()
		release()
		if parked == nil {
			return
		}
		if status := <-parked; status != http.StatusOK {
			t.Fatalf("parked request failed after the slot freed: %d", status)
		}
	}}
}

// postShed posts a cold /optimize body that must be shed: 503, a
// Retry-After header, code "overload" and the given reason. It only
// calls t.Error, so it is safe off the test goroutine.
func postShed(t *testing.T, ts *httptest.Server, body, reason string) {
	t.Helper()
	res, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Error(err)
		return
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d for a shed request, want 503: %s", res.StatusCode, buf.String())
		return
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("503 shed response missing Retry-After")
	}
	var e ErrorResponse
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Code != CodeOverload || e.Reason != reason || e.RetryAfterMs <= 0 {
		t.Errorf("shed body %s (%v), want code %q reason %q and a retry hint", buf.String(), err, CodeOverload, reason)
	}
}

// shedMember checks a batch member that was shed: the same code, reason
// and retry hint /optimize answers with, and no result.
func shedMember(t *testing.T, m BatchMemberResponse, reason string) {
	t.Helper()
	if m.Result != nil || m.ErrorCode != CodeOverload || m.Reason != reason || m.RetryAfterMs <= 0 {
		t.Errorf("shed member = %+v, want error_code %q reason %q and a retry hint", m, CodeOverload, reason)
	}
}

// TestChaosQueueBoundSheds: with the one cold-DP slot held and the queue at
// its bound, the next cold arrival is shed immediately — 503, Retry-After,
// code "overload", reason "queue_full" — instead of queuing unboundedly,
// while an exact repeat and a frontier re-weight still answer 200: cache
// hits never queue. In a batch the shed is the member's: the envelope is
// 200, the cold member carries the failure and its cached siblings their
// results.
func TestChaosQueueBoundSheds(t *testing.T) {
	t.Run("/optimize", func(t *testing.T) {
		w := newWedgedServer(t, 1)
		postShed(t, w.ts, chainBody(5, coldSel, "rta", warmWeights), "queue_full")

		status, hit, raw := post(t, w.ts, chainBody(5, warmSel, "rta", warmWeights))
		if status != http.StatusOK || !hit.Cached {
			t.Errorf("exact repeat behind a full queue: status %d cached %v: %s", status, hit.Cached, raw)
		}
		status, rew, raw := post(t, w.ts, chainBody(5, warmSel, "rta", reweightWeights))
		if status != http.StatusOK || !rew.Stats.ReusedFrontier {
			t.Errorf("re-weight behind a full queue: status %d reused_frontier %v: %s", status, rew.Stats.ReusedFrontier, raw)
		}

		w.free()
		if m := metrics(t, w.ts); m.Requests.ShedOverload != 1 {
			t.Errorf("shed_overload = %d, want 1", m.Requests.ShedOverload)
		}
	})
	t.Run("/optimize/batch", func(t *testing.T) {
		w := newWedgedServer(t, 1)
		member := func(sel float64, weights map[string]float64) BatchMemberRequest {
			return BatchMemberRequest{Query: chainQuery(5, sel), Algorithm: "rta",
				Objectives: []string{"total_time", "buffer_footprint"}, Weights: weights, Workers: 1}
		}
		body, err := json.Marshal(BatchRequest{Catalog: chainCatalog(5), Members: []BatchMemberRequest{
			member(coldSel, warmWeights), member(warmSel, warmWeights), member(warmSel, reweightWeights),
		}})
		if err != nil {
			t.Fatal(err)
		}
		status, batch, raw := postBatch(t, w.ts, string(body))
		if status != http.StatusOK || len(batch.Members) != 3 {
			t.Fatalf("batch behind a full queue: status %d, want 200 with 3 members: %s", status, raw)
		}
		shedMember(t, batch.Members[0], "queue_full")
		if hit := batch.Members[1].Result; hit == nil || !hit.Cached {
			t.Errorf("cached sibling of a shed member: %+v", batch.Members[1])
		}
		if rew := batch.Members[2].Result; rew == nil || !rew.Stats.ReusedFrontier {
			t.Errorf("re-weighted sibling of a shed member: %+v", batch.Members[2])
		}
		if batch.Stats.Errors != 1 {
			t.Errorf("batch stats errors = %d, want 1", batch.Stats.Errors)
		}

		w.free()
		if m := metrics(t, w.ts); m.Requests.ShedOverload != 1 {
			t.Errorf("shed_overload = %d, want 1", m.Requests.ShedOverload)
		}
	})
}

// TestChaosBudgetExhaustedWhileQueued: a request whose deadline budget
// dies while it is still waiting for a cold-DP slot is shed with 503
// reason "budget_exhausted" — queue wait consumes the budget, and a
// request that never ran reports overload, not a timeout of work it
// never did. A batch member shed the same way carries the same code and
// reason.
func TestChaosBudgetExhaustedWhileQueued(t *testing.T) {
	w := newWedgedServer(t, 0)
	defer w.free()

	body := chainBody(5, coldSel, "rta", warmWeights)
	body = body[:len(body)-1] + `,"timeout_ms":60}`
	postShed(t, w.ts, body, "budget_exhausted")

	status, batch, raw := postBatch(t, w.ts, batchOfOne(t, body))
	if status != http.StatusOK || len(batch.Members) != 1 {
		t.Fatalf("batch with a member dying in the queue: status %d: %s", status, raw)
	}
	shedMember(t, batch.Members[0], "budget_exhausted")

	if m := metrics(t, w.ts); m.Requests.ShedOverload != 2 {
		t.Errorf("shed_overload = %d, want 2 (one request, one member)", m.Requests.ShedOverload)
	}
}

// TestChaosCoalescedShed: two identical cold requests arriving together at
// a full queue both get the structured 503 — if the frontier tier's
// single-flight coalesced them, the follower neither hangs nor gets a
// zero response — and the tier does not cache the shed: once the slot frees,
// the same request is a clean miss that runs its dynamic program.
func TestChaosCoalescedShed(t *testing.T) {
	w := newWedgedServer(t, 1)
	body := chainBody(5, coldSel, "rta", warmWeights)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			postShed(t, w.ts, body, "queue_full")
		}()
	}
	wg.Wait()
	if m := metrics(t, w.ts); m.Requests.ShedOverload != 2 {
		t.Errorf("shed_overload = %d, want 2", m.Requests.ShedOverload)
	}

	w.free()
	before := w.svc.sched.Granted()[tenant.Anonymous]
	status, resp, raw := post(t, w.ts, body)
	if status != http.StatusOK || resp.Cached || resp.Stats.ReusedFrontier {
		t.Fatalf("request after the shed: status %d cached %v reused_frontier %v, want a clean miss: %s",
			status, resp.Cached, resp.Stats.ReusedFrontier, raw)
	}
	if ran := w.svc.sched.Granted()[tenant.Anonymous] - before; ran != 1 {
		t.Errorf("request after the shed ran %d dynamic programs, want 1", ran)
	}
}

// TestChaosCloseUnderEvictionLoad: closing the server while requests
// are actively evicting snapshots from the frontier tier (each eviction
// touches the store) must neither panic nor deadlock; Close is
// idempotent, and an eviction that lands after it is a no-op — it
// neither writes nor reopens anything. Run under -race.
func TestChaosCloseUnderEvictionLoad(t *testing.T) {
	svc, err := NewE(Options{
		StorePath:             t.TempDir(),
		CacheShards:           1,
		FrontierCacheCapacity: 2, // tiny: almost every cold shape evicts one
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sel := 0.1 + 0.001*float64(g*1000+i%200)
				res, err := http.Post(ts.URL+"/optimize", "application/json",
					bytes.NewBufferString(chainBody(5, sel, "rta", map[string]float64{"total_time": 1})))
				if err != nil {
					return // server shutting down
				}
				_ = res.Body.Close()
			}
		}(g)
	}

	// Close once evictions are flowing, and keep them flowing past it.
	evictions := func() uint64 { return svc.tiers.frontier.Stats().Evictions }
	waitEvictions := func(n uint64) {
		t.Helper()
		waitFor(t, 10*time.Second, fmt.Sprintf("%d frontier-tier evictions", n),
			func() bool { return evictions() >= n })
	}
	waitEvictions(8)
	if err := svc.Close(); err != nil {
		t.Errorf("close under eviction load: %v", err)
	}
	closed := svc.tiers.disk.Stats()
	waitEvictions(evictions() + 8)
	close(stop)
	wg.Wait()
	if err := svc.Close(); err != nil { // idempotent
		t.Errorf("second close: %v", err)
	}
	if after := svc.tiers.disk.Stats(); after.Writes != closed.Writes || after.Bytes != closed.Bytes || after.Entries != closed.Entries {
		t.Errorf("the closed store changed under evictions: %+v -> %+v", closed, after)
	}
}

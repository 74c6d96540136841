package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"time"

	"moqo/internal/fault"
	"moqo/internal/server"
)

// ChaosSpec parameterizes the disk-chaos availability experiment: the
// daemon serves a stream of optimization requests while its frontier
// store's disk is dead — every device operation hangs DeadDelay and
// then fails — once with the store circuit breaker at a production
// threshold and once, as the baseline, at a threshold the request stream
// cannot reach, so the breaker never trips. The workload is sized so most
// requests would touch the dead device: the frontier memory tier is tiny,
// so warmed shapes keep falling out of memory and their serves retry the
// store (a read against a known key, then a re-run DP's write-through).
// Under a breaker that never trips every such request pays the dying
// disk's hang; under one that does the disk is quarantined after a
// handful of failures and serving degrades to memory-only latency.
// Answers are verified against a fault-free reference either way — chaos
// may slow or shed requests, never change answers.
type ChaosSpec struct {
	// Requests is the measured request count per arm (default 60).
	Requests int
	// Tables sizes the chain query shapes (default 7).
	Tables int
	// Shapes is how many distinct query shapes the stream cycles over
	// (default 6; the frontier memory tier holds 2, so most serves
	// miss memory and hit the dead disk).
	Shapes int
	// DeadDelay is the dying disk's per-operation hang (default 10ms).
	DeadDelay time.Duration
}

func (s ChaosSpec) withDefaults() ChaosSpec {
	if s.Requests == 0 {
		s.Requests = 60
	}
	if s.Tables == 0 {
		s.Tables = 7
	}
	if s.Shapes == 0 {
		s.Shapes = 6
	}
	if s.DeadDelay == 0 {
		s.DeadDelay = 10 * time.Millisecond
	}
	return s
}

// ChaosPoint is one arm's measurement.
type ChaosPoint struct {
	// Arm is "breaker" or "no-breaker".
	Arm      string `json:"arm"`
	Requests int    `json:"requests"`
	// Errors counts non-200 responses; Availability is the served
	// fraction (a store-tier failure must never fail a request, so both
	// arms are expected at 1.0 — the cost of no breaker is latency).
	Errors       int     `json:"errors"`
	Availability float64 `json:"availability"`
	// Mismatches counts answers that differed from the fault-free
	// reference (must be 0 — the differential invariant).
	Mismatches int `json:"mismatches"`
	// Client-side request latency percentiles over the dead-disk window.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// DeadOps counts device operations attempted while the disk was
	// dead (each one paid DeadDelay); Skipped counts store operations
	// the breaker refused instead.
	DeadOps uint64 `json:"dead_ops"`
	Skipped uint64 `json:"skipped"`
	// BreakerTrips and BreakerState describe the breaker at the end of
	// the run (0 and "closed" in the no-breaker arm).
	BreakerTrips uint64 `json:"breaker_trips"`
	BreakerState string `json:"breaker_state"`
}

// ChaosSummary carries the headline numbers: p99 under a dead disk
// with and without the breaker, and their ratio.
type ChaosSummary struct {
	BreakerP50Ms   float64 `json:"breaker_p50_ms"`
	NoBreakerP50Ms float64 `json:"no_breaker_p50_ms"`
	// P50Ratio is no-breaker over breaker at the median — the steady
	// state: post-trip the breaker serves memory-only while the baseline
	// pays the dead device on every request.
	P50Ratio       float64 `json:"p50_ratio"`
	BreakerP99Ms   float64 `json:"breaker_p99_ms"`
	NoBreakerP99Ms float64 `json:"no_breaker_p99_ms"`
	// P99Ratio is no-breaker over breaker at the tail; the breaker arm's
	// tail holds its pre-trip requests and recovery probes, so the
	// median ratio understates less.
	P99Ratio             float64 `json:"p99_ratio"`
	BreakerAvailability  float64 `json:"breaker_availability"`
	BaselineAvailability float64 `json:"no_breaker_availability"`
}

// ChaosAvailability runs the experiment: a fault-free reference pass
// computes expected answers, then each arm serves the same stream with
// the store's disk dead.
func ChaosAvailability(spec ChaosSpec) ([]ChaosPoint, ChaosSummary, error) {
	spec = spec.withDefaults()
	var sum ChaosSummary

	// Fault-free reference answers, keyed by request body.
	reference := make(map[string]chaosAnswer)
	refSvc, err := server.NewE(server.Options{})
	if err != nil {
		return nil, sum, err
	}
	refTS := httptest.NewServer(refSvc.Handler())
	for _, body := range chaosStream(spec) {
		if _, seen := reference[body]; seen {
			continue
		}
		var ans chaosAnswer
		if _, err := postTimed(refTS, "", body, &ans); err != nil {
			refTS.Close()
			return nil, sum, fmt.Errorf("bench: chaos reference request: %w", err)
		}
		reference[body] = ans
	}
	refTS.Close()
	_ = refSvc.Close()

	var pts []ChaosPoint
	for _, arm := range []string{"breaker", "no-breaker"} {
		pt, err := chaosArm(spec, arm, reference)
		if err != nil {
			return nil, sum, err
		}
		pts = append(pts, pt)
		if arm == "breaker" {
			sum.BreakerP50Ms, sum.BreakerP99Ms = pt.P50Ms, pt.P99Ms
			sum.BreakerAvailability = pt.Availability
		} else {
			sum.NoBreakerP50Ms, sum.NoBreakerP99Ms = pt.P50Ms, pt.P99Ms
			sum.BaselineAvailability = pt.Availability
		}
	}
	sum.P50Ratio = flooredRatio(sum.NoBreakerP50Ms, sum.BreakerP50Ms)
	sum.P99Ratio = flooredRatio(sum.NoBreakerP99Ms, sum.BreakerP99Ms)
	return pts, sum, nil
}

// chaosAnswer is the compared answer content of an /optimize response
// (serving metadata like cached/duration legitimately differs under
// faults).
type chaosAnswer struct {
	Algorithm string             `json:"algorithm"`
	Plan      json.RawMessage    `json:"plan"`
	Cost      map[string]float64 `json:"cost"`
}

// chaosArm measures one arm against a dead disk: "breaker" trips after 3
// consecutive failures; "no-breaker" is the same server with a threshold
// no request stream reaches, so its breaker stays closed.
func chaosArm(spec ChaosSpec, arm string, reference map[string]chaosAnswer) (ChaosPoint, error) {
	pt := ChaosPoint{Arm: arm, Requests: spec.Requests}
	dir, err := os.MkdirTemp("", "moqo-chaos-")
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)

	inj := fault.NewInjector(nil, fault.Config{
		DeadDelay: spec.DeadDelay,
	})
	threshold := 3
	if arm == "no-breaker" {
		threshold = math.MaxInt
	}
	svc, err := server.NewE(server.Options{
		StorePath: dir,
		StoreFS:   inj,
		// Tiny memory tier: warmed shapes keep getting evicted, so their
		// next serve goes back to the store — the dead disk sits on the
		// hot path instead of being hidden by memory hits. One shard
		// makes the capacity exact (a sharded cache rounds capacity up
		// per shard and evicts per shard, which would let hash luck
		// decide how many shapes stay memory-resident).
		FrontierCacheCapacity: 2,
		CacheShards:           1,
		BreakerThreshold:      threshold,
		BreakerCooldown:       100 * time.Millisecond,
	})
	if err != nil {
		return pt, err
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		_ = svc.Close()
	}()

	// Warm every shape on a healthy disk: each lands in the store, and
	// all but two fall out of the memory tier immediately.
	for i := 0; i < spec.Shapes; i++ {
		var sink chaosAnswer
		if _, err := postTimed(ts, "", chaosBody(spec, i, 0), &sink); err != nil {
			return pt, fmt.Errorf("bench: chaos warm-up: %w", err)
		}
	}

	opsBefore := chaosOps(inj)
	inj.SetDead(true)
	var latency []float64
	for _, body := range chaosStream(spec) {
		var ans chaosAnswer
		ms, err := postTimed(ts, "", body, &ans)
		if err != nil {
			pt.Errors++
			continue
		}
		latency = append(latency, ms)
		want := reference[body]
		if ans.Algorithm != want.Algorithm || !bytes.Equal(ans.Plan, want.Plan) ||
			!reflect.DeepEqual(ans.Cost, want.Cost) {
			pt.Mismatches++
		}
	}
	inj.SetDead(false)
	pt.DeadOps = chaosOps(inj) - opsBefore

	pt.Availability = float64(spec.Requests-pt.Errors) / float64(spec.Requests)
	pt.P50Ms, pt.P99Ms = p50p99(latency)

	// Breaker/skip accounting from the public metrics surface.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return pt, err
	}
	var m server.MetricsResponse
	err = json.NewDecoder(res.Body).Decode(&m)
	res.Body.Close()
	if err != nil {
		return pt, err
	}
	pt.Skipped = m.FrontierStore.Skipped
	pt.BreakerTrips = m.FrontierStore.Breaker.Trips
	pt.BreakerState = m.FrontierStore.Breaker.State
	return pt, nil
}

// chaosOps sums the injector's per-class device-operation counters.
func chaosOps(inj *fault.Injector) uint64 {
	var total uint64
	for _, n := range inj.Counters().Ops {
		total += n
	}
	return total
}

// chaosBody renders shape i's /optimize request: distinct filter
// selectivities are distinct query shapes (distinct FrontierKeys), and
// distinct bufferWeights are distinct re-weights of one shape — the
// same FrontierKey under other weights.
func chaosBody(spec ChaosSpec, i int, bufferWeight float64) string {
	return chainBody(spec.Tables, 0.2+0.1*float64(i), "rta", 1.2,
		[]string{"total_time", "buffer_footprint"}, bufferWeight, false)
}

// chaosStream is the measured request sequence: re-weights cycling over
// the shapes, every request a fresh weight. Each serve must consult the
// frontier tier — which
// holds 2 of the Shapes snapshots — and on a memory miss retries the
// store: a read against a known key, then (when that fails) a re-run
// DP's write-through. That is what puts a dead disk on the hot path.
func chaosStream(spec ChaosSpec) []string {
	bodies := make([]string, spec.Requests)
	for i := range bodies {
		bodies[i] = chaosBody(spec, i%spec.Shapes, 1+0.01*float64(i))
	}
	return bodies
}

// RenderChaos renders the experiment as an aligned text table.
func RenderChaos(pts []ChaosPoint, sum ChaosSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %8s %6s %8s %9s %9s %9s %8s %6s %10s\n",
		"arm", "requests", "errors", "avail", "p50(ms)", "p99(ms)", "dead-ops", "skipped", "trips", "state")
	for _, p := range pts {
		fmt.Fprintf(&b, "%10s %8d %6d %7.0f%% %9.2f %9.2f %9d %8d %6d %10s\n",
			p.Arm, p.Requests, p.Errors, 100*p.Availability, p.P50Ms, p.P99Ms,
			p.DeadOps, p.Skipped, p.BreakerTrips, p.BreakerState)
	}
	fmt.Fprintf(&b, "dead-disk p50: no-breaker %.2fms vs breaker %.2fms (%.1fx); p99: %.2fms vs %.2fms (%.1fx)\n",
		sum.NoBreakerP50Ms, sum.BreakerP50Ms, sum.P50Ratio,
		sum.NoBreakerP99Ms, sum.BreakerP99Ms, sum.P99Ratio)
	return b.String()
}

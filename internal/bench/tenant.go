package bench

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moqo/internal/server"
	"moqo/internal/tenant"
)

// TenantSpec parameterizes the multi-tenant fairness experiment: one
// "flood" tenant hammers the service with a stream of distinct cold
// EXA dynamic programs (every request a different query shape, so
// nothing caches) while one "light" tenant lives on the frontier
// re-weight fast path of a single warmed shape. The experiment measures
// the light tenant's latency unloaded and under flood: the weighted fair
// scheduler gates only cold dynamic programs, so the light tenant's
// frontier hits never queue behind the flood, and what inflation is left
// is the machine's (one core shared with a running DP), not the queue's.
//
// The headline number is the flooded/unloaded p99 ratio.
type TenantSpec struct {
	// LightRequests is the light tenant's measured request count per
	// scenario (default 100).
	LightRequests int
	// FloodClients is the flood tenant's closed-loop client count
	// (default 3).
	FloodClients int
	// FloodTables sizes the flood's chain queries (default 8; EXA).
	FloodTables int
	// LightTables sizes the light tenant's warmed chain shape (default 11;
	// RTA alpha 1.1, four objectives, frontier included in the response —
	// a few-millisecond re-weight serve, so the percentiles measure real
	// work rather than scheduler noise).
	LightTables int
}

func (s TenantSpec) withDefaults() TenantSpec {
	if s.LightRequests == 0 {
		s.LightRequests = 100
	}
	if s.FloodClients == 0 {
		s.FloodClients = 3
	}
	if s.FloodTables == 0 {
		s.FloodTables = 8
	}
	if s.LightTables == 0 {
		s.LightTables = 11
	}
	return s
}

// TenantPoint is one measured scenario.
type TenantPoint struct {
	// Scenario is "unloaded" or "flooded".
	Scenario string `json:"scenario"`
	// LightRequests and Errors count the light tenant's measurement
	// stream.
	LightRequests int `json:"light_requests"`
	Errors        int `json:"errors"`
	// FloodServed counts flood requests completed during the scenario
	// (0 when unloaded).
	FloodServed int `json:"flood_served"`
	// Light-tenant client-side latency percentiles in milliseconds.
	LightP50Ms float64 `json:"light_p50_ms"`
	LightP99Ms float64 `json:"light_p99_ms"`
}

// TenantSummary carries the headline ratio: the light tenant's flooded
// p99 over its unloaded p99 under the fair scheduler.
type TenantSummary struct {
	FairP99Ratio float64 `json:"fair_p99_ratio"`
}

// TenantLoad runs the fairness experiment: the light tenant is measured
// alone and then under flood, against a fresh in-process service each
// time.
func TenantLoad(spec TenantSpec) ([]TenantPoint, TenantSummary, error) {
	spec = spec.withDefaults()
	// Interactive latency needs runtime headroom: with GOMAXPROCS=1 (a
	// single-core host), a woken serving goroutine waits out the running
	// dynamic program's whole scheduling slice — tens of milliseconds —
	// whatever the scheduler decided. Giving the runtime a few Ps lets the
	// kernel time-share the core instead, which preempts the CPU-bound DP
	// thread for the waking handler within microseconds. Multi-core hosts
	// are unaffected (NumCPU already exceeds the floor).
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	// The flood's EXA dynamic programs allocate heavily, and on a small
	// host the resulting GC cycles stall every goroutine — tail noise that
	// has nothing to do with the scheduling under test. Trade heap
	// for fewer cycles while the experiment runs.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	unloaded, err := tenantScenario(spec, false)
	if err != nil {
		return nil, TenantSummary{}, err
	}
	flooded, err := tenantScenario(spec, true)
	if err != nil {
		return nil, TenantSummary{}, err
	}
	sum := TenantSummary{FairP99Ratio: flooredRatio(flooded.LightP99Ms, unloaded.LightP99Ms)}
	return []TenantPoint{unloaded, flooded}, sum, nil
}

// tenantScenario measures the light tenant alone, or under the flood.
func tenantScenario(spec TenantSpec, flooded bool) (TenantPoint, error) {
	cfg, err := tenant.ParseConfig([]byte(`{
		"tenants": {"flood": {"weight": 1}, "light": {"weight": 3}}
	}`))
	if err != nil {
		return TenantPoint{}, err
	}
	svc, err := server.NewE(server.Options{
		Tenants:    tenant.NewRegistry(cfg),
		MaxColdDPs: 1, // one slot: the flood queues, which is what the scheduler arbitrates
	})
	if err != nil {
		return TenantPoint{}, err
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()
	post := func(ten, body string) (float64, error) {
		var sink json.RawMessage
		return postTimed(ts, ten, body, &sink)
	}

	// The light tenant's request: a re-weight of one warmed RTA shape,
	// asking for the frontier (473 points at these parameters), so each
	// serve is a SelectBest scan plus real response rendering.
	lightBody := func(bufferWeight float64) string {
		return chainBody(spec.LightTables, 0.25, "rta", 1.1,
			[]string{"total_time", "buffer_footprint", "tuple_loss", "io_load"},
			bufferWeight, true)
	}
	// Warm the light tenant's shape: one cold DP, after which each
	// re-weight is a frontier hit.
	if _, err := post("light", lightBody(1)); err != nil {
		return TenantPoint{}, fmt.Errorf("bench: tenant warm-up: %w", err)
	}

	pt := TenantPoint{
		Scenario:      "unloaded",
		LightRequests: spec.LightRequests,
	}

	var (
		stop         atomic.Bool
		floodStarted atomic.Int64
		floodServed  atomic.Int64
		floodErrs    atomic.Int64
		wg           sync.WaitGroup
	)
	if flooded {
		pt.Scenario = "flooded"
		// Each flood request is a distinct query shape (a fresh filter
		// selectivity), i.e. a genuinely cold dynamic program; the clients
		// keep the queue saturated until the light stream completes.
		var seq atomic.Int64
		for c := 0; c < spec.FloodClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					sel := 0.1 + 0.0001*float64(seq.Add(1)%8000)
					floodStarted.Add(1)
					if _, err := post("flood", chainBody(spec.FloodTables, sel, "exa", 0,
						[]string{"total_time", "buffer_footprint"}, 0, false)); err != nil {
						floodErrs.Add(1)
						continue
					}
					floodServed.Add(1)
				}
			}()
		}
		// Wait until every flood client is in flight before measuring.
		for floodStarted.Load() < int64(spec.FloodClients) {
			time.Sleep(time.Millisecond)
		}
	}

	var latency []float64
	for i := 0; i < spec.LightRequests; i++ {
		// Pace the light stream: it represents an interactive user, and
		// back-to-back requests would end the flooded window before the
		// flood got to queue anything.
		time.Sleep(time.Millisecond)
		ms, err := post("light", lightBody(2+0.01*float64(i)))
		if err != nil {
			pt.Errors++
			continue
		}
		latency = append(latency, ms)
	}
	if flooded {
		stop.Store(true)
		wg.Wait()
		pt.FloodServed = int(floodServed.Load())
		pt.Errors += int(floodErrs.Load())
	}

	pt.LightP50Ms, pt.LightP99Ms = p50p99(latency)
	return pt, nil
}

// chainBody renders the /optimize request body for an n-table chain
// over an inline catalog. sel distinguishes query shapes; bufferWeight
// distinguishes re-weights of one shape (0 omits weights).
func chainBody(n int, sel float64, alg string, alpha float64, objectives []string, bufferWeight float64, frontier bool) string {
	cat := server.CatalogSpec{}
	q := server.QuerySpec{Name: "tenant-chain"}
	for i := 0; i < n; i++ {
		cat.Tables = append(cat.Tables, server.TableSpec{
			Name:  fmt.Sprintf("t%d", i),
			Rows:  float64(1000 * (i + 1)),
			Width: 16,
			PK:    "id",
		})
		fs := 1.0
		if i == 0 {
			fs = sel
		}
		q.Relations = append(q.Relations, server.RelationSpec{Table: fmt.Sprintf("t%d", i), FilterSel: fs})
	}
	for i := 0; i+1 < n; i++ {
		q.Joins = append(q.Joins, server.JoinSpec{Left: i, Right: i + 1, LeftCol: "id", RightCol: "id", Selectivity: 0.01})
	}
	spec := server.OptimizeRequest{
		Catalog:    &cat,
		Query:      &q,
		Algorithm:  alg,
		Alpha:      alpha,
		Objectives: objectives,
		Workers:    1,
		Frontier:   frontier,
	}
	if bufferWeight != 0 {
		spec.Weights = map[string]float64{"total_time": 1, "buffer_footprint": bufferWeight}
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a struct of strings, numbers and bools always marshals
	}
	return string(b)
}

// RenderTenantLoad renders the fairness measurements as a text table.
func RenderTenantLoad(pts []TenantPoint, sum TenantSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%9s %7s %7s %12s %13s %13s\n",
		"scenario", "light", "errors", "flood-served", "light-p50(ms)", "light-p99(ms)")
	for _, p := range pts {
		fmt.Fprintf(&b, "%9s %7d %7d %12d %13.2f %13.2f\n",
			p.Scenario, p.LightRequests, p.Errors, p.FloodServed, p.LightP50Ms, p.LightP99Ms)
	}
	fmt.Fprintf(&b, "light-tenant p99 inflation under flood (fair scheduler): %.1fx\n", sum.FairP99Ratio)
	return b.String()
}

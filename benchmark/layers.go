package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"moqo"
	"moqo/internal/core"
	"moqo/internal/server"
)

// layerUnits names every per-layer metric and its unit; a traced run
// reports all of them on every workload, 0 where the workload never
// reaches the layer (that zero is itself a prediction: store.hits on
// serve_hit must stay 0).
var layerUnits = map[string]string{
	"server.decode_us": "us", "server.encode_us": "us", "server.unattributed_us": "us",
	"server.loopback_extra_us": "us", "server.metrics_scrape_us": "us",
	"server.latency_p99_ms": "ms", "server.latency_p999_ms": "ms",
	"server.requests": "count", "server.errors": "count", "server.shed": "count",

	"moqo.build_request_us": "us", "moqo.cachekey_us": "us", "moqo.frontierkey_us": "us",
	"moqo.reoptimize_us": "us", "moqo.planjson_us": "us", "moqo.snapshot_marshal_us": "us",
	"moqo.snapshot_unmarshal_us": "us", "moqo.snapshot_bytes": "B", "moqo.batch_ms": "ms",
	"moqo.latency_p99_ms": "ms",

	"tenant.admit_ns": "ns", "tenant.sched_acquire_ns": "ns", "tenant.cold_dps": "count", "tenant.rejected": "count",

	"cache.get_ns": "ns", "cache.put_ns": "ns", "cache.plan_hit_ratio": "ratio", "cache.plan_evictions": "count",
	"cache.frontier_hit_ratio": "ratio", "cache.frontier_evictions": "count", "cache.coalesced": "count",

	"store.open_ms": "ms", "store.get_us": "us", "store.put_us": "us", "store.hits": "count", "store.writes": "count",
	"store.writes_per_hit": "ratio", "store.bytes_written_per_hit": "B", "store.compactions": "count",
	"store.disk_bytes_per_live_byte": "ratio", "store.io_errors": "count",

	"fault.breaker_allow_ns": "ns", "fault.breaker_trips": "count",

	"core.ns_per_candidate": "ns", "core.considered": "count", "core.stored": "count", "core.enum_sets": "count",
	"core.enum_splits": "count", "core.memory_bytes": "B", "core.ira_iterations": "count", "core.engine_runs": "count",
	"core.sharedmemo_hits": "count", "core.predict_cost_ns": "ns", "core.select_from_snapshot_us": "us",
	"core.parallel_efficiency": "ratio", "core.cost_ratio_max": "ratio",

	"pareto.insert_ns_w3": "ns", "pareto.insert_ns_w6": "ns", "pareto.insert_ns_w9": "ns",
	"pareto.accept_ratio": "ratio", "pareto.select_best_ns_per_row": "ns",

	"costmodel.joincost_ns": "ns", "costmodel.indexnl_ns": "ns", "costmodel.scan_alt_ns": "ns",
	"query.csg_ns_per_set": "ns", "query.split_ns_per_split": "ns", "query.estimate_rows_ns": "ns",
	"plan.materialize_us": "us", "plan.json_us": "us",
	"catalog.fingerprint_ns": "ns", "catalog.tpch_build_us": "us",

	"bench.loop_overhead_ns": "ns", "bench.trace_overhead": "ratio",
}

// exactCounters repeat exactly for a given seed on unchanged code: each is
// taken over a fixed unit of work (one round of the cold list, one batch,
// the dynamic programs that warmed the tiers), not over a time window.
// compare fails on any difference in them.
var exactCounters = []string{
	"core.considered", "core.stored", "core.enum_sets", "core.enum_splits",
	"core.ira_iterations", "core.engine_runs", "moqo.snapshot_bytes",
}

// stageMetrics maps a replay stage to the metric its median self time
// feeds and the number of nanoseconds in that metric's unit.
var stageMetrics = map[string]struct {
	metric string
	per    float64
}{
	"server.decode": {"server.decode_us", 1e3}, "server.encode": {"server.encode_us", 1e3},
	"moqo.build_request": {"moqo.build_request_us", 1e3}, "moqo.cachekey": {"moqo.cachekey_us", 1e3},
	"moqo.frontierkey": {"moqo.frontierkey_us", 1e3}, "moqo.reoptimize": {"moqo.reoptimize_us", 1e3},
	"moqo.planjson": {"moqo.planjson_us", 1e3}, "moqo.snapshot_unmarshal": {"moqo.snapshot_unmarshal_us", 1e3},
	"moqo.batch": {"moqo.batch_ms", 1e6}, "tenant.admit": {"tenant.admit_ns", 1},
	"cache.get": {"cache.get_ns", 1}, "cache.put": {"cache.put_ns", 1},
	"store.get": {"store.get_us", 1e3}, "fault.breaker_allow": {"fault.breaker_allow_ns", 1},
}

// tracedRun is what the traced run's loops observed, for each workload to
// turn into its layers' metrics.
type tracedRun struct {
	plain, traced loopResult
	engineRuns    float64 // core.EngineRuns over all four passes
	p99, p999     float64 // tail of the untraced latencies, ms
}

// runTraced is the second, traced run: one set-up, untraced and traced
// passes alternating, then the workload's stage times and counter deltas
// and the unit probes. It reports per-layer metrics only; end-to-end
// metrics always come from runPlain.
func runTraced(cfg config, w workload, res *result) error {
	if err := w.setUp(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	m := res.Metrics
	for name, unit := range layerUnits {
		m.set(name, 0, unit)
	}
	set := func(name string, v float64) { m.set(name, v, layerUnits[name]) }
	if err := w.beginTrace(); err != nil {
		return err
	}
	runsBefore := core.EngineRuns()

	// Untraced and traced passes alternate A B B A, so that drift over the
	// run (heap growth, a neighbour on the machine) weighs on both alike
	// and their difference is the tracing.
	eighth := time.Duration(cfg.seconds * float64(time.Second) / 8)
	recs := make([]*recorder, w.clients())
	epoch := time.Now()
	for i := range recs {
		recs[i] = &recorder{epoch: epoch}
	}
	var tr tracedRun
	for _, withSpans := range []bool{false, true, true, false} {
		if withSpans {
			tr.traced = joinLoops(tr.traced, w.measure(eighth, recs))
		} else {
			tr.plain = joinLoops(tr.plain, w.measure(eighth, nil))
		}
	}
	res.addPhase("untraced", tr.plain)
	res.addPhase("traced", tr.traced)
	if len(tr.plain.samples) == 0 || len(tr.traced.samples) == 0 {
		return fmt.Errorf("no operation succeeded")
	}
	tr.engineRuns = float64(core.EngineRuns() - runsBefore)

	spans := mergeSpans(recs)
	stages := selfTimes(spans)
	res.Stages = stages
	if err := writeTrace(cfg.outDir, cfg.workload, cfg.seed, sampledOps(spans), stages); err != nil {
		return err
	}

	// Stage self times, and what of a handled request they leave unexplained.
	replays := float64(stages["replay"].Count)
	staged := 0.0
	for name, sm := range stageMetrics {
		if st, ok := stages[name]; ok {
			set(sm.metric, st.SelfUs*1e3/sm.per)
			staged += st.SelfUs * float64(st.Count) / replays
		}
	}
	if handle, ok := stages["server.handle"]; ok && replays > 0 {
		set("server.unattributed_us", handle.SelfUs-staged)
	}

	plainLat := latenciesMs(tr.plain.samples)
	tr.p99, tr.p999 = tail(plainLat)
	res.Samples["latency tail"] = len(plainLat)
	set("bench.trace_overhead", perKeyGeomean(tr.traced.samples)/perKeyGeomean(tr.plain.samples)-1)
	set("bench.loop_overhead_ns", loopOverheadNs())
	if err := w.layers(set, tr); err != nil {
		return err
	}
	return unitProbes(cfg, m)
}

func (c *cold) beginTrace() error { return nil }

func (c *cold) layers(set func(string, float64), tr tracedRun) error {
	set("moqo.latency_p99_ms", tr.p99)
	rounds := float64(tr.plain.attempted+tr.traced.attempted) / float64(len(c.instances))
	var round coldStats
	var busy time.Duration
	for _, st := range c.last {
		round.addCore(st)
		busy += st.Duration
	}
	setColdStats(set, round)
	set("core.ns_per_candidate", float64(busy)/float64(round.considered))
	set("core.engine_runs", tr.engineRuns/rounds)
	set("core.cost_ratio_max", c.ratioMax)
	eff, err := c.parallelEfficiency(tr.traced.samples)
	set("core.parallel_efficiency", eff)
	return err
}

// beginTrace builds the staged mirror and notes the server's counters.
func (s *serving) beginTrace() (err error) {
	if s.mirror, err = newMirror(s); err != nil {
		return err
	}
	s.before, _, err = s.metrics()
	return err
}

func (s *serving) layers(set func(string, float64), tr tracedRun) error {
	set("server.latency_p99_ms", tr.p99)
	set("server.latency_p999_ms", tr.p999)
	setColdStats(set, s.coldStats)
	set("core.engine_runs", tr.engineRuns) // every request is served from a tier: 0
	set("moqo.snapshot_bytes", float64(s.mirror.snapshotBytes))
	if err := s.counters(set, s.before); err != nil {
		return err
	}
	set("server.loopback_extra_us", s.loopbackExtraUs(quantile(latenciesMs(tr.plain.samples), 0.5)))
	return nil
}

func (b *batchFresh) beginTrace() error { return nil }

func (b *batchFresh) layers(set func(string, float64), tr tracedRun) error {
	set("server.latency_p99_ms", tr.p99)
	members := float64(len(b.expected))
	posts := float64(tr.plain.attempted+tr.traced.attempted) / members
	set("server.requests", posts)
	set("server.errors", float64(tr.plain.failed+tr.traced.failed)/members)
	setColdStats(set, b.coldStats)
	set("core.sharedmemo_hits", float64(b.coldStats.sharedHits))
	// Engine runs of the replay's library batches are not the server's.
	set("core.engine_runs", (tr.engineRuns-float64(b.replayRuns))/posts)
	set("tenant.cold_dps", float64(b.granted))
	return nil
}

func setColdStats(set func(string, float64), c coldStats) {
	set("core.considered", float64(c.considered))
	set("core.stored", float64(c.stored))
	set("core.enum_sets", float64(c.enumSets))
	set("core.enum_splits", float64(c.enumSplits))
	set("core.memory_bytes", float64(c.memory))
	set("core.ira_iterations", float64(c.iterations))
}

// sampledOps keeps the spans of operations that were replayed, so the
// trace file holds whole operations (black-box span plus stages) and stays
// small.
func sampledOps(spans []span) []span {
	replayed := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "replay" {
			replayed[s.Op] = true
		}
	}
	if len(replayed) == 0 { // cold workloads have no replay: keep every span
		return spans
	}
	index := make([]int32, len(spans))
	var out []span
	for i, s := range spans {
		if !replayed[s.Op] {
			continue
		}
		index[i] = int32(len(out))
		if s.Parent >= 0 {
			s.Parent = index[s.Parent]
		}
		out = append(out, s)
	}
	return out
}

// counters turns the server's own /metrics into deltas over the two loops.
func (s *serving) counters(set func(string, float64), before server.MetricsResponse) error {
	scrapes := make([]float64, 5)
	var after server.MetricsResponse
	for i := range scrapes {
		m, d, err := s.metrics()
		if err != nil {
			return err
		}
		after, scrapes[i] = m, us(d)
	}
	set("server.metrics_scrape_us", median(scrapes))
	set("server.requests", float64(after.Requests.Optimize-before.Requests.Optimize))
	set("server.errors", float64(after.Requests.Errors-before.Requests.Errors))
	set("server.shed", float64(after.Requests.ShedOverload-before.Requests.ShedOverload))

	ratio := func(hits, misses, coalesced uint64) float64 {
		if total := hits + misses + coalesced; total > 0 {
			return float64(hits+coalesced) / float64(total)
		}
		return 0
	}
	ac, bc := after.Cache, before.Cache
	set("cache.plan_hit_ratio", ratio(ac.Hits-bc.Hits, ac.Misses-bc.Misses, ac.Coalesced-bc.Coalesced))
	set("cache.plan_evictions", float64(ac.Evictions-bc.Evictions))
	af, bf := after.FrontierCache, before.FrontierCache
	set("cache.frontier_hit_ratio", ratio(af.Hits-bf.Hits, af.Misses-bf.Misses, af.Coalesced-bf.Coalesced))
	set("cache.frontier_evictions", float64(af.Evictions-bf.Evictions))
	set("cache.coalesced", float64(ac.Coalesced-bc.Coalesced+af.Coalesced-bf.Coalesced))

	tenantTotals := func(m server.MetricsResponse) (granted, rejected uint64) {
		for _, t := range m.Tenants {
			granted += t.Granted
			for _, n := range t.Rejected {
				rejected += n
			}
		}
		return granted, rejected
	}
	grantedAfter, rejectedAfter := tenantTotals(after)
	grantedBefore, rejectedBefore := tenantTotals(before)
	set("tenant.cold_dps", float64(grantedAfter-grantedBefore))
	set("tenant.rejected", float64(rejectedAfter-rejectedBefore))

	as, bs := after.FrontierStore, before.FrontierStore
	if !as.Enabled {
		return nil
	}
	hits, writes := float64(as.Hits-bs.Hits), float64(as.Writes-bs.Writes)
	set("store.hits", hits)
	set("store.writes", writes)
	set("store.compactions", float64(as.Compactions-bs.Compactions))
	set("store.io_errors", float64(as.IOErrors-bs.IOErrors))
	if as.Breaker != nil {
		set("fault.breaker_trips", float64(as.Breaker.Trips))
	}
	if hits > 0 {
		set("store.writes_per_hit", writes/hits)
		// Every write appends one marshaled snapshot; their mean size
		// stands in for a byte counter the store does not export.
		set("store.bytes_written_per_hit", writes/hits*float64(s.mirror.snapshotBytes)/float64(len(s.shapes)))
	}
	var disk int64
	err := filepath.WalkDir(s.storeDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	if as.Bytes > 0 {
		set("store.disk_bytes_per_live_byte", float64(disk)/float64(as.Bytes))
	}
	return nil
}

// loopbackExtraUs is what a real socket adds to a request: the median of a
// short single-client pass over loopback HTTP minus the in-process median.
// It is kernel and net/http time, not this repository's code, which is why
// the measured loops stay in-process and the cost is reported once here.
// 0 where the sandbox has no loopback interface.
func (s *serving) loopbackExtraUs(inProcessP50Ms float64) float64 {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopback pass:", err)
		return 0
	}
	ts := &httptest.Server{Listener: l, Config: &http.Server{Handler: s.handler}}
	ts.Start()
	defer ts.Close()
	client := ts.Client()
	var lat []float64
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", bytes.NewReader(s.bodies[s.keyFor(0, i)]))
		if err != nil {
			return 0
		}
		req.Header.Set(server.TenantHeader, tenantNames[0])
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loopback pass:", err)
			return 0
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat = append(lat, ms(time.Since(start)))
	}
	return (median(lat) - inProcessP50Ms) * 1e3
}

// parallelEfficiency is, per instance, its one-worker time over its
// n-worker time times n, averaged geometrically: 1 is perfect scaling, 1/n
// a pool that only adds overhead. On cold_w1 it is 1 by definition.
func (c *cold) parallelEfficiency(samples []sample) (float64, error) {
	if c.workers == 1 {
		return 1, nil
	}
	parallel := map[int32][]float64{}
	for _, s := range samples {
		parallel[s.key] = append(parallel[s.key], ms(s.lat))
	}
	var eff []float64
	for i, in := range c.instances {
		req := in.req
		req.Workers = 1
		serial := make([]float64, 3)
		for k := range serial {
			start := time.Now()
			if _, err := moqo.Optimize(req); err != nil {
				return 0, err
			}
			serial[k] = ms(time.Since(start))
		}
		eff = append(eff, median(serial)/(median(parallel[int32(i)])*float64(c.workers)))
	}
	return geomean(eff), nil
}

// commit is the VCS revision the binary was built from, when the build
// had one to stamp.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

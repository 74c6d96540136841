package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"moqo/internal/fault"
)

// handleMetricsPrometheus serves GET /metrics/prometheus: the same
// gather as /metrics (metricsSnapshot) walked into the Prometheus text
// exposition format (version 0.0.4), hand-rolled so the daemon scrapes
// without a client library dependency. The scheduler's total queue depth
// is the one series /metrics reports only per tenant. Tenant names pass
// ValidName ([A-Za-z0-9_.-]), so label values need no escaping.
func (s *Server) handleMetricsPrometheus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	m := s.metricsSnapshot()
	var b strings.Builder
	p := promWriter{b: &b}

	p.metric("moqo_uptime_seconds", "gauge", "Seconds since the server started.", m.UptimeMs/1000)

	p.family("moqo_requests_total", "counter", "Requests received, by endpoint.")
	p.sample("moqo_requests_total", labels{{"endpoint", "optimize"}}, float64(m.Requests.Optimize))
	p.sample("moqo_requests_total", labels{{"endpoint", "batch"}}, float64(m.Requests.Batch))
	p.metric("moqo_batch_members_total", "counter", "Batch members received.", float64(m.Requests.BatchMembers))
	p.metric("moqo_errors_total", "counter", "Failed requests plus failed batch members.", float64(m.Requests.Errors))
	p.metric("moqo_in_flight", "gauge", "Requests currently being served.", float64(m.Requests.InFlight))
	p.metric("moqo_shed_overload_total", "counter", "Requests shed with 503: queue at its bound or deadline budget exhausted while queued.", float64(m.Requests.ShedOverload))
	p.metric("moqo_panics_total", "counter", "Contained panics (worker-pool and handler); each failed one request, the process survived.", float64(m.Requests.Panics))
	p.metric("moqo_queue_depth", "gauge", "Cold dynamic programs waiting across all admission queues.", float64(s.sched.Queued()))

	p.family("moqo_latency_quantile_ms", "gauge", "Served-request latency quantiles over a sliding window.")
	p.sample("moqo_latency_quantile_ms", labels{{"quantile", "0.5"}}, m.Latency.P50)
	p.sample("moqo_latency_quantile_ms", labels{{"quantile", "0.99"}}, m.Latency.P99)

	// /metrics' cache block stands for the exact-result cache, which is
	// gone; it reads zero and is not exported here.
	p.family("moqo_cache_hits_total", "counter", "Frontier-cache hits, by tier.")
	p.family("moqo_cache_misses_total", "counter", "Frontier-cache misses, by tier.")
	p.family("moqo_cache_coalesced_total", "counter", "Lookups served by waiting on an in-flight identical computation, by tier.")
	p.family("moqo_cache_evictions_total", "counter", "Frontier-cache LRU evictions, by tier.")
	p.family("moqo_cache_entries", "gauge", "Frontier-cache entries, by tier.")
	if f := m.FrontierCache; f.Enabled {
		tier := labels{{"tier", "frontier"}}
		p.sample("moqo_cache_hits_total", tier, float64(f.Hits))
		p.sample("moqo_cache_misses_total", tier, float64(f.Misses))
		p.sample("moqo_cache_coalesced_total", tier, float64(f.Coalesced))
		p.sample("moqo_cache_evictions_total", tier, float64(f.Evictions))
		p.sample("moqo_cache_entries", tier, float64(f.Entries))
		p.metric("moqo_reweight_served_total", "counter", "Requests answered from a cached frontier snapshot instead of a dynamic program.", float64(f.ReweightServed))
		p.metric("moqo_snapshot_bytes", "gauge", "Estimated bytes of frontier snapshots cached in memory.", float64(f.SnapshotBytes))
	}
	if st := m.FrontierStore; st.Enabled {
		p.metric("moqo_store_hits_total", "counter", "Disk frontier-store hits.", float64(st.Hits))
		p.metric("moqo_store_misses_total", "counter", "Disk frontier-store misses.", float64(st.Misses))
		p.metric("moqo_store_writes_total", "counter", "Disk frontier-store snapshot appends.", float64(st.Writes))
		p.metric("moqo_store_bytes", "gauge", "Live payload bytes in the disk frontier store.", float64(st.Bytes))
		p.metric("moqo_store_entries", "gauge", "Entries in the disk frontier store.", float64(st.Entries))
		p.metric("moqo_store_evictions_total", "counter", "Entries dropped to keep the disk frontier store under its byte budget.", float64(st.Evictions))
		p.metric("moqo_store_corrupt_dropped_total", "counter", "Disk frontier-store entries dropped instead of served: torn, checksum-failed or undecodable.", float64(st.CorruptDropped))
		p.metric("moqo_store_compactions_total", "counter", "Completed segment-log compactions.", float64(st.Compactions))
		p.metric("moqo_store_io_errors_total", "counter", "Device-level I/O failures observed by the disk frontier store.", float64(st.IOErrors))
		p.metric("moqo_store_skipped_total", "counter", "Store operations skipped because the circuit breaker was open.", float64(st.Skipped))
		if bst := st.Breaker; bst != nil {
			p.family("moqo_store_breaker_state", "gauge", "Store circuit breaker state: 0 closed, 1 half-open, 2 open.")
			var state float64
			switch bst.State {
			case fault.HalfOpen.String():
				state = 1
			case fault.Open.String():
				state = 2
			}
			p.sample("moqo_store_breaker_state", nil, state)
			p.metric("moqo_store_breaker_trips_total", "counter", "Times the store breaker tripped open.", float64(bst.Trips))
		}
	}

	// Per-tenant series: one sample per tracked tenant, labeled by name.
	if len(m.Tenants) > 0 {
		p.family("moqo_tenant_requests_total", "counter", "Requests received per tenant (batch members count individually).")
		p.family("moqo_tenant_admitted_total", "counter", "Requests the tenant's quota admitted.")
		p.family("moqo_tenant_rejected_total", "counter", "Requests the tenant's quota rejected, by reason.")
		p.family("moqo_tenant_queue_depth", "gauge", "Cold dynamic programs waiting in the tenant's admission queue.")
		p.family("moqo_tenant_granted_total", "counter", "Cold-DP slots the fair scheduler granted the tenant.")
		p.family("moqo_tenant_cache_bytes", "gauge", "Shared-cache bytes attributed to entries the tenant populated.")
		p.family("moqo_tenant_cache_entries", "gauge", "Shared-cache entries attributed to the tenant.")
		p.family("moqo_tenant_cache_evictions_total", "counter", "Attributed entries lost to LRU eviction.")
		p.family("moqo_tenant_latency_quantile_ms", "gauge", "Per-tenant served-request latency quantiles.")
		for _, t := range m.Tenants {
			ten := labels{{"tenant", t.Name}}
			p.sample("moqo_tenant_requests_total", ten, float64(t.Requests))
			p.sample("moqo_tenant_admitted_total", ten, float64(t.Admitted))
			for _, reason := range []string{"rate", "tables", "cost"} {
				if n, ok := t.Rejected[reason]; ok {
					p.sample("moqo_tenant_rejected_total",
						labels{{"tenant", t.Name}, {"reason", reason}}, float64(n))
				}
			}
			p.sample("moqo_tenant_queue_depth", ten, float64(t.QueueDepth))
			p.sample("moqo_tenant_granted_total", ten, float64(t.Granted))
			p.sample("moqo_tenant_cache_bytes", ten, float64(t.CacheBytes))
			p.sample("moqo_tenant_cache_entries", ten, float64(t.CacheEntries))
			p.sample("moqo_tenant_cache_evictions_total", ten, float64(t.CacheEvictions))
			p.sample("moqo_tenant_latency_quantile_ms",
				labels{{"tenant", t.Name}, {"quantile", "0.5"}}, t.Latency.P50)
			p.sample("moqo_tenant_latency_quantile_ms",
				labels{{"tenant", t.Name}, {"quantile", "0.99"}}, t.Latency.P99)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// labels is an ordered label set (order is part of the exposition, so a
// map would make output nondeterministic).
type labels [][2]string

// promWriter accumulates one exposition document.
type promWriter struct{ b *strings.Builder }

// family writes a metric family's HELP and TYPE header.
func (p promWriter) family(name, typ, help string) {
	fmt.Fprintf(p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// metric writes a family of one unlabeled sample.
func (p promWriter) metric(name, typ, help string, v float64) {
	p.family(name, typ, help)
	p.sample(name, nil, v)
}

// sample writes one sample line. Label values are restricted to
// ValidName-safe characters by construction, so %q quoting is exact.
func (p promWriter) sample(name string, ls labels, v float64) {
	p.b.WriteString(name)
	if len(ls) > 0 {
		p.b.WriteByte('{')
		for i, kv := range ls {
			if i > 0 {
				p.b.WriteByte(',')
			}
			fmt.Fprintf(p.b, "%s=%q", kv[0], kv[1])
		}
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	p.b.WriteByte('\n')
}

// Command moqod runs the moqo optimization service: a long-running HTTP
// server that answers multi-objective query optimization requests through
// a sharded, single-flight cache of Pareto frontiers — the paper's
// multi-user Cloud provider scenario as a daemon.
//
// Usage:
//
//	moqod [-addr :8080] [-cache 1024] [-frontier-cache 512]
//	      [-cache-shards 16] [-default-timeout 30s] [-max-timeout 2m]
//	      [-workers N]
//	      [-store DIR] [-store-max-bytes N] [-store-nosync]
//	      [-breaker-threshold 5] [-breaker-cooldown 250ms]
//	      [-tenants FILE] [-max-cold-dps N] [-max-queue N]
//
// With -store, frontier snapshots persist to a crash-consistent segment
// log under DIR: every completed (non-degraded) dynamic program writes
// its Pareto frontier through to disk, and a restarted daemon answers
// known query shapes from the store in microseconds instead of
// re-running their dynamic programs (warm restart).
//
// With -tenants, requests are served under per-tenant quotas from the
// given JSON config (see internal/tenant): callers identify themselves
// with the X-Moqo-Tenant header (batch members with a per-member tenant
// field; absent means the anonymous tenant), admission enforces each
// tenant's table ceiling, predicted-cost ceiling and token-bucket
// request budget (rejections are 429 with Retry-After), and cold
// dynamic programs are scheduled across tenants by weighted fair
// round-robin — cache and frontier hits bypass the queue entirely.
// SIGHUP re-reads the config without a restart; a config that fails to
// parse is rejected and the running one kept. Tenancy never changes
// answers: plans, costs and frontiers are identical with and without it.
//
// Endpoints:
//
//	POST /optimize            — optimize one query (JSON body; see internal/server)
//	POST /optimize/batch      — optimize a whole workload in one call: one
//	                            catalog resolution, identical members deduped
//	                            into one dynamic program, re-weights served
//	                            from cached frontiers, common subexpressions
//	                            shared across members, cost-ordered
//	                            scheduling ("stream": true for NDJSON)
//	GET  /metrics             — request, latency, cache and per-tenant
//	                            counters (JSON)
//	GET  /metrics/prometheus  — the same counters in the Prometheus text
//	                            exposition format
//	GET  /healthz             — liveness probe: 200 while the process can
//	                            answer requests, even degraded to
//	                            memory-only serving (restarting would not
//	                            fix a failed disk)
//	GET  /readyz              — readiness probe: 503 while the store
//	                            circuit breaker has quarantined a failing
//	                            disk, so balancers prefer full-capacity
//	                            replicas
//
// Resilience: store disk errors feed a circuit breaker — after
// -breaker-threshold consecutive failures the disk is quarantined and
// serving degrades to memory-only (the frontier tier keeps answering;
// nothing fails), probing recovery every -breaker-cooldown with
// exponential backoff. -max-queue bounds the cold-DP admission queue,
// the one place a request can wait: arrivals past the bound are shed
// immediately with 503 + Retry-After instead of growing an unbounded
// latency cliff, and a request whose deadline budget dies while queued
// is shed the same way.
//
// Example session:
//
//	moqod -addr :8080 &
//	curl -s localhost:8080/optimize -d '{
//	  "tpch": 3,
//	  "objectives": ["total_time", "energy"],
//	  "weights": {"total_time": 1, "energy": 0.2}
//	}'
//	curl -s localhost:8080/metrics
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// stops accepting, in-flight requests drain (up to 30s), and the store's
// segments are synced and closed. Store appends are fsynced on the
// request's goroutine before it answers, so there is nothing queued to
// flush and a clean shutdown never tears a segment.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"moqo/internal/server"
	"moqo/internal/tenant"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		cacheCap       = flag.Int("cache", 1024, "kept for compatibility: there is no exact-result plan cache any more, so the value is ignored, except that a negative one disables caching entirely")
		frontierCap    = flag.Int("frontier-cache", 512, "frontier snapshot cache capacity in entries; exa/rta/ira requests for a cached query shape, repeats and weight/bound changes alike, are served without re-optimizing (negative disables the tier and with it all caching: every request, a repeat included, re-optimizes)")
		cacheShards    = flag.Int("cache-shards", 0, "frontier cache shard count (0 = default)")
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "optimization timeout for requests without timeout_ms")
		maxTimeout     = flag.Duration("max-timeout", 2*time.Minute, "upper clamp on per-request timeouts")
		workers        = flag.Int("workers", runtime.NumCPU(), "default optimizer worker goroutines per request")
		storePath      = flag.String("store", "", "directory for the disk-backed frontier store (empty disables persistence); a restarted daemon serves known query shapes from it without re-optimizing")
		storeMaxBytes  = flag.Int64("store-max-bytes", 0, "live-byte budget of the frontier store (0 = default 256 MiB, negative = unbounded)")
		storeNoSync    = flag.Bool("store-nosync", false, "skip fsync after store appends (faster; a crash may lose the newest snapshots)")
		breakThreshold = flag.Int("breaker-threshold", 0, "consecutive store failures that trip the breaker (0 = default 5)")
		breakCooldown  = flag.Duration("breaker-cooldown", 0, "first breaker open window before a recovery probe; failed probes double it (0 = default 250ms)")
		maxQueue       = flag.Int("max-queue", 0, "total cold-DP admission-queue bound; arrivals past it are shed with 503 (0 = unbounded)")
		tenantsPath    = flag.String("tenants", "", "JSON tenant-config file: per-tenant quotas, budgets and scheduling weights (empty = no quotas; SIGHUP re-reads it)")
		maxColdDPs     = flag.Int("max-cold-dps", 0, "concurrently running cold dynamic programs across all tenants (0 = NumCPU); cache hits never count")
	)
	flag.Parse()

	var registry *tenant.Registry
	if *tenantsPath != "" {
		cfg, err := tenant.LoadConfig(*tenantsPath)
		if err != nil {
			fatalf("%v", err)
		}
		registry = tenant.NewRegistry(cfg)
		fmt.Printf("moqod: tenant config %s loaded (%d tenants)\n", *tenantsPath, len(cfg.Tenants))
	}
	svc, err := server.NewE(server.Options{
		CacheCapacity:         *cacheCap,
		FrontierCacheCapacity: *frontierCap,
		CacheShards:           *cacheShards,
		DefaultTimeout:        *defaultTimeout,
		MaxTimeout:            *maxTimeout,
		DefaultWorkers:        *workers,
		StorePath:             *storePath,
		StoreMaxBytes:         *storeMaxBytes,
		StoreNoSync:           *storeNoSync,
		BreakerThreshold:      *breakThreshold,
		BreakerCooldown:       *breakCooldown,
		MaxQueueDepth:         *maxQueue,
		Tenants:               registry,
		MaxColdDPs:            *maxColdDPs,
	})
	if err != nil {
		fatalf("open frontier store: %v", err)
	}
	defer func() {
		if err := svc.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "moqod: close frontier store: %v\n", err)
		}
	}()
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Printf("moqod: listening on %s (frontier-cache=%d workers=%d)\n", *addr, *frontierCap, *workers)

	// SIGHUP hot-reloads the tenant config in place: counters and
	// in-flight work are untouched, only quotas change. A file that no
	// longer parses keeps the running config (never degrade a live
	// service to an unvalidated one).
	if registry != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				cfg, err := tenant.LoadConfig(*tenantsPath)
				if err != nil {
					fmt.Fprintf(os.Stderr, "moqod: SIGHUP reload rejected: %v\n", err)
					continue
				}
				registry.Reload(cfg)
				fmt.Printf("moqod: tenant config %s reloaded (%d tenants)\n", *tenantsPath, len(cfg.Tenants))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("%v", err)
		}
	case s := <-sig:
		fmt.Printf("moqod: %v — draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			// Report but fall through: the deferred svc.Close must still
			// close the store cleanly.
			fmt.Fprintf(os.Stderr, "moqod: shutdown: %v\n", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "moqod: "+format+"\n", args...)
	os.Exit(1)
}

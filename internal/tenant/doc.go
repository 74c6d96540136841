// Package tenant implements moqod's multi-tenant serving layer: caller
// identity, per-tenant quotas, cost-based admission, and fair scheduling
// between tenants — the paper's Cloud-provider scenario (Trummer & Koch,
// SIGMOD 2014, Section 1) taken to many callers sharing one optimizer.
//
// Tenancy is strictly answer-invariant: nothing in this package touches
// what a plan, cost, or frontier looks like. Quotas decide whether a
// request runs at all, and the scheduler decides when a cold dynamic
// program starts; the dynamic program itself — and every cached answer —
// is bit-for-bit what an untenanted server would produce (pinned by the
// tenancy differential test in internal/server).
//
// Three pieces:
//
//   - Config/Quota: a static JSON tenant configuration (moqod -tenants,
//     hot-reloadable on SIGHUP) declaring per-tenant scheduling weight,
//     concurrent-DP and table ceilings, a token-bucket request budget,
//     and a predicted-cost admission ceiling evaluated against
//     core.PredictCost — the paper's 3^n·2^(m−1) complexity shape, so a
//     30-table EXA is rejected before it can occupy the worker pool.
//   - Registry: per-tenant runtime state — token buckets, admission and
//     latency counters, cache-partition accounting (byte/entry shares
//     and eviction counts attributed to the tenant whose request
//     populated the entry) — behind a hot-swappable config.
//   - Scheduler: a weighted-round-robin admission queue gating cold
//     dynamic programs. Each tenant has its own arrival-order queue;
//     free slots go to queues by smooth weighted round-robin, so one
//     tenant flooding expensive optimizations cannot starve another's
//     queue. Cache and frontier hits never enter the scheduler (the
//     serving fast path bypasses it entirely); the fairness experiment
//     (internal/bench.TenantLoad) measures what that is worth to a light
//     tenant under a flood. It is the only place a request can queue.
package tenant

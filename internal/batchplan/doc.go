// Package batchplan is the one schedule a batch of optimizations runs
// under, shared by the library (moqo.OptimizeBatch, whose units are
// frontier groups) and the service (POST /optimize/batch, whose units are
// resolved members):
//
//   - Order: units run most-expensive-first by the caller's predicted cost
//     (core.PredictCost) — the LPT makespan heuristic, which also lets the
//     cheap overlapping units that follow find their subproblems already
//     published to the batch's shared memo. The sort is stable, so units
//     of equal cost keep their submission order.
//   - Lanes: units sharing a lane (a *moqo.Query, whose cardinality memo is
//     written without locks and warmed by the first run for the rest) are
//     served one at a time, in schedule order rather than in whatever order
//     their claimers reach a lock. Which unit of a lane runs the dynamic
//     program and which ones reuse it is then the same on every run.
//   - Claimers: Run serves with `parallel` claimers, of which the caller's
//     goroutine is one — a batch with parallel 1 spawns nothing, and
//     otherwise the caller works instead of waiting.
//
// The package knows nothing about requests, caches or tenants: a unit is
// an index, and what serving it means is the caller's callback.
package batchplan

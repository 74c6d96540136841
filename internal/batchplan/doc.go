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
//   - Lanes: units sharing a lane are served one at a time, in schedule
//     order rather than in whatever order their claimers get there. A lane
//     protects nothing — runs share no unlocked state — it decides who
//     leads: the service puts the members of one query shape in one lane,
//     so which of them runs the dynamic program and which ones answer from
//     its cached result is the same on every run. A caller whose units
//     need no such order (the library: a frontier group names its leader
//     by construction) gives each unit its own lane.
//   - Claimers: Run serves with `parallel` claimers, of which the caller's
//     goroutine is one — a batch with parallel 1 spawns nothing, and
//     otherwise the caller works instead of waiting.
//
// The package knows nothing about requests, caches or tenants: a unit is
// an index, and what serving it means is the caller's callback.
package batchplan

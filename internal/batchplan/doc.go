// Package batchplan is the one schedule a batch of optimizations runs
// under, shared by the library (moqo.OptimizeBatch, whose units are
// frontier groups) and the service (POST /optimize/batch, whose units are
// resolved members):
//
//   - Lanes: each unit names a lane, and a lane is one unit of work. Its
//     units are served one after another on one claimer, most expensive
//     first by the caller's predicted cost (core.PredictCost), equal costs
//     in submission order. A lane protects nothing — runs share no
//     unlocked state — it decides who leads: the service puts the members
//     of one query shape in one lane, so which of them runs the dynamic
//     program and which ones answer from its cached result is the same on
//     every run. A caller whose units need no such order (the library: a
//     frontier group names its leader by construction) gives each unit its
//     own lane.
//   - Order: lanes are claimed in the order of their most expensive unit —
//     the LPT makespan heuristic over the lanes' leaders, whose followers
//     (re-weights and cache hits) cost next to nothing beside them. So
//     distinct leaders start side by side, most expensive first, which is
//     what a caller dividing the cores among the units in flight assumes.
//     Leaders that overlap cost no extra enumeration work for running at
//     once: the batch's shared memo has each subproblem solved by the
//     first run to reach it while the others wait for it.
//   - Claimers: Run serves with `parallel` claimers, of which the caller's
//     goroutine is one — a batch with parallel 1 spawns nothing, and
//     otherwise the caller works instead of waiting. The one claim rule: a
//     claimer takes the next lane and serves it whole. A claim is one
//     atomic add, so no claimer ever waits for another, and none can park
//     on a busy lane: a lane is only ever in one claimer's hands.
//
// The package knows nothing about requests, caches or tenants: a unit is
// an index, and what serving it means is the caller's callback.
package batchplan

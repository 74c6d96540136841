// Package batchplan is the one schedule a batch of optimizations runs
// under, shared by the library (moqo.OptimizeBatch, whose units are
// frontier groups) and the service (POST /optimize/batch, whose units are
// resolved members):
//
//   - Order: ticket-major. Each lane hands out its tickets most-expensive-
//     first by the caller's predicted cost (core.PredictCost), and units
//     are claimed round by round: every lane's ticket 0 (its leader) before
//     any lane's ticket 1, each round most expensive first — the LPT
//     makespan heuristic over the units that can actually start, which
//     also lets the cheap overlapping units that follow find their
//     subproblems already published to the batch's shared memo. Both sorts
//     are stable, so units of equal cost keep their submission order.
//     A follower cannot start before its lane's leader is served, so
//     claiming it early would only park a claimer while another lane's
//     leader waited; ticket-major order runs distinct leaders side by side
//     instead, which is what a caller dividing the cores among the units
//     in flight assumes. The trade-off: leaders that overlap run at once,
//     so fewer of their subproblems are already published when each gets
//     there — more enumeration work (CPU) for a shorter makespan.
//   - Lanes: units sharing a lane are served one at a time, in ticket
//     order rather than in whatever order their claimers get there. A lane
//     protects nothing — runs share no unlocked state — it decides who
//     leads: the service puts the members of one query shape in one lane,
//     so which of them runs the dynamic program and which ones answer from
//     its cached result is the same on every run. A caller whose units
//     need no such order (the library: a frontier group names its leader
//     by construction) gives each unit its own lane, so every ticket is 0
//     and the order is plain most-expensive-first.
//   - Claimers: Run serves with `parallel` claimers, of which the caller's
//     goroutine is one — a batch with parallel 1 spawns nothing, and
//     otherwise the caller works instead of waiting.
//
// The package knows nothing about requests, caches or tenants: a unit is
// an index, and what serving it means is the caller's callback.
package batchplan

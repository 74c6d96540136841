// Package batchplan is the one schedule a batch of optimizations runs
// under, shared by the library (moqo.OptimizeBatch, whose units are
// frontier groups) and the service (POST /optimize/batch, whose units are
// resolved members):
//
//   - Order: ticket-major. Each lane hands out its tickets most-expensive-
//     first by the caller's predicted cost (core.PredictCost), and units
//     are claimed round by round: every lane's ticket 0 (its leader) before
//     any lane's ticket 1, each round most expensive first — the LPT
//     makespan heuristic over the units that can actually start. Both sorts
//     are stable, so units of equal cost keep their submission order.
//     A follower cannot start before its lane's leader is served, so
//     ticket-major order runs distinct leaders side by side first, which
//     is what a caller dividing the cores among the units in flight
//     assumes. Leaders that overlap cost no extra enumeration work for
//     running at once: the batch's shared memo has each subproblem solved
//     by the first run to reach it while the others wait for it.
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
//     otherwise the caller works instead of waiting. A claimer takes the
//     first unclaimed unit in schedule order whose lane is free (every
//     earlier ticket served, nothing in service), so it never parks on a
//     busy lane while another lane's unit could start: once a lane's
//     leader is served, its followers run beside another lane's long
//     leader. The claimer that finishes a unit takes the next free one
//     itself, its lane's successor included, so no claimer ever waits for
//     another: one that finds no unit free is done.
//
// The package knows nothing about requests, caches or tenants: a unit is
// an index, and what serving it means is the caller's callback.
package batchplan

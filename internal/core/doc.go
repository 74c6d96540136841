// Package core implements the multi-objective query optimization
// algorithms the paper studies (Trummer & Koch, "Approximation Schemes for
// Many-Objective Query Optimization", SIGMOD 2014):
//
//   - EXA — the exact multi-objective dynamic program of Ganguly et al.
//     (paper Algorithm 1): Selinger-style bushy DP with Pareto-set pruning.
//   - RTA — the representative-tradeoffs algorithm (Algorithm 2): the same
//     DP with approximate-dominance pruning at internal precision
//     αi = αU^(1/|Q|); an approximation scheme for weighted MOQO
//     (Theorem 3, Corollary 1).
//   - IRA — the iterative-refinement algorithm (Algorithm 3): repeated RTA
//     runs at geometrically refined precision with a stopping condition
//     that certifies αU-approximation for bounded-weighted MOQO
//     (Theorems 6-8).
//   - RTAVector — a beyond-paper extension of the RTA with per-objective
//     precisions (coarse on tolerant objectives, exact on strict ones).
//   - Single-objective baselines: a Selinger-style DP (used for the
//     paper's single-objective measurements and for deriving per-objective
//     minima when generating bounds) and the unsound weighted-sum DP that
//     the paper's Example 1 rules out.
//
// All algorithms share one enumeration engine (engine.go) over one plan
// space: bushy trees over predicate-connected splits, which is the
// Postgres search-space heuristic the paper kept in place (Cartesian
// products only when no predicate-connected split exists) for a connected
// join graph. A disconnected graph — which would need products — is an
// error at every entry point (query.Validate, latched by newEngine). The
// engine is layered into four pieces:
//
//   - an enumerator (enumerator.go): level-by-level materialization of
//     the connected table sets with dense integer ids, by
//     connected-subgraph traversal (query.EachConnectedSubset), so sparse
//     topologies pay polynomial enumeration work instead of 2^n. The
//     query is immutable, so the estimates of the enumerated sets are
//     stored in the run's cost model, once, when the levels are final
//     (newEngine → costmodel.Model.Warm); the workers then only read
//     them. Per table set, the candidate loop dispatches on size and
//     density between a subset scan, an edge-cut enumeration and a
//     csg-cmp traversal (forEachCandidateAuto); all three emit the same
//     splits in the same canonical order, so the dispatch changes the
//     enumeration work and never a result (the tests pin each loop to
//     the definition);
//   - a slice-backed memo table of flat Pareto archives
//     (pareto.FlatArchive) indexed by those ids — the candidate loops
//     never hash;
//   - a level-synchronized worker pool (pool.go) that shards each
//     cardinality level across Options.Workers goroutines without
//     weakening any approximation guarantee;
//   - one frontier extraction per run (engine.extract) that closes the
//     final frontier over the sub-plans it reaches, and a deferred
//     materializer (internal/plan) that rebuilds *plan.Node trees from
//     that closed memo only when the Frontier's plans are read.
//
// The candidate loop is allocation-free: a candidate is a cost vector in
// the worker's scratch and a plan.Entry value, offered to a flat archive
// whose insert reads the vector in place and allocates nothing after
// warm-up. Costing is split-constant: each
// operator's terms that depend only on the operand table sets are
// prepared once per split into worker scratch (costmodel.PrepareJoin) and
// applied to the sub-plans' cost rows, read in place, once per candidate
// (costmodel.JoinTerms.ApplyTo).
//
// Most candidates are not costed at all. The cost formulas are sums,
// maxima and products of non-negative values, monotone in every term, so
// the componentwise minimum of an operator's terms over its DOPs
// (costmodel.MinTerms) costs, over any sub-plan pair, a floor under each
// of its DOP variants on each objective. When a table set's candidates
// go to an archive (fullSet), joinPairs applies that floor first and asks
// the archive whether its hinted row already approximately dominates it
// (pareto.FlatArchive.RejectsAll), and if not whether the row of the
// split's slot does (RejectsAllNear) — two row tests, never a scan: if
// either does it dominates every variant, each would have been rejected
// on a hint test with nothing moving but the rejected and hint counters,
// and the group is counted and skipped. The slot is the archive's second
// hint (InsertRowNear): a worker keeps one per inner sub-plan and
// operator of the split at hand — the key under which the rejecting row
// changes least from one outer plan to the next — in a fixed table
// (worker.nears) whose reachable part is zeroed at the top of every
// split, so what the archives count as answered without a scan is a
// function of the table set and not of the schedule. Rejection is
// existential: which stored row witnesses it, a hint's or a scan's,
// changes nothing that can be observed. Two details make the gate
// bit-identical and not just equivalent: a skipped group advances the
// amortized deadline tick by its size and a group that would contain a
// poll is costed one by one (worker.pollFree), so a timeout lands on the
// same candidate; and the floor comparison is written so that a NaN
// fails it, sending overflowed statistics down the per-candidate path.
// The degraded and scalar modes run the plain loop, and index-nested-loop
// candidates are offered one by one with one slot between them.
//
// A finished frontier has one form, Frontier (frontier.go): the full
// set's cost rows and compact entries in canonical order, closed over the
// sub-memo they reference — every reached (table set, index), sets
// ascending, densely re-indexed, carved from the same entry array and
// cost array as the rows — and the archive counters. Every run, the
// scalar baselines and degraded runs included, extracts it once
// (engine.extract), so a Result holds what its frontier reaches and never
// the run's memo, and every frontier materializes one way
// (plan.NewDenseMaterializer: slots, one slab of nodes). EXA, RTA,
// RTAVector and IRA share one epilogue (engine.finish) that extracts the
// final archive in canonical order (pareto.FlatArchive.CanonicalOrder),
// selects over the rows (pareto.SelectBestRows) and takes Result.Best
// from the frontier's one, memoized materialization — so results are
// byte-for-byte reproducible
// across worker counts and schedules, and Best is always
// Frontier.Plans()[Frontier.SelectBest(w, b)]. The pre-refactor
// tree-allocating engine is preserved (reference.go: ReferenceEXA,
// ReferenceRTA) as the differential oracle of this package's tests and of
// the scoreboard's α-guarantee check (benchmark/cold.go); it is the only
// non-test code that still names the tree-backed archive of
// internal/pareto.
//
// Every algorithm has a Context variant (EXAContext, RTAContext, ...):
// cancelling the context aborts the dynamic program promptly with the
// context's error, while a context deadline folds into the paper's
// timeout/degradation path (Section 5.1) — untreated table sets get a
// single best-weighted plan and the run still returns a usable Result
// with Stats.TimedOut set. The deadline is observed from the very first
// phase: if it expires while the enumerator is still materializing
// levels (an exponential connected-subset walk: a clique, a wide star),
// the enumeration falls back to a minimal left-deep chain and the
// degraded path still returns a plan in O(n) work.
//
// Because archive pruning never reads the user's weights or bounds, the
// final frontier of a completed run is reusable across weight and bound
// changes. Every completed EXA, RTA, RTAVector and IRA run returns it as
// Result.Snapshot, a FrontierSnapshot: the run's Frontier itself plus the
// set-level precision, the run's origin and effort, and a versioned
// binary serialization. A degraded run's frontier is extracted the same
// way and never returned as a snapshot. SelectFromSnapshot answers a
// re-weighted request from a snapshot with a SelectBest scan over those
// rows (bit-for-bit the cold EXA/RTA answer, the plan taken from the
// snapshot's one materialization), and IRASeededContext seeds the
// bounded refinement loop from one (the Theorem 6 stopping condition
// evaluated at the snapshot's recorded precision). The moqo package and
// the moqod service build their frontier-cache tier on these.
package core

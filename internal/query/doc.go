// Package query defines the optimizer's input: a set of relations (base
// table references with filter selectivities) connected by equi-join
// predicates. This matches the paper's formal model (Section 3) — "we
// represent queries as set of tables Q that need to be joined … join
// predicates are however considered in the implementations of the
// presented algorithms".
//
// Table sets are represented as 64-bit bitsets (TableSet), the unit the
// dynamic programs of internal/core enumerate over: subset iteration,
// connectivity of the join graph, and the crossing-edge test all operate
// on these bitsets.
//
// Two families of search-space enumeration are provided on top of them:
//
//   - TableSet.EachSubset — the 2-split iteration over all 2^|s| - 2
//     subsets of a set, in the canonical order every candidate loop of
//     the engine emits its splits in (the engine's scan loop on dense
//     sets, and the reference engine's split loop);
//   - the join-graph traversal primitives (traverse.go):
//     Query.EachConnectedSubset enumerates every connected subgraph of a
//     region exactly once by BFS-ordered neighborhood expansion
//     (Moerkotte & Neumann's EnumerateCsg) — the engine builds both its
//     level materialization and its traversal candidate loop on it — and
//     Query.EachConnectedSplit derives from it the csg-cmp splits
//     (partitions into two connected halves), serving as the
//     specification form of the split enumeration the engine inlines. On
//     sparse topologies (chains, cycles, stars, trees) these touch
//     polynomially many sets where the subset scan touches 2^n.
//
// The package also provides the cardinality estimator used by the cost
// model: textbook selectivity-based estimation over table-set bitsets.
// Estimates depend only on the table set, never on the plan producing it —
// the premise of the paper's Observation 2, which the approximation
// guarantee relies on — and are pure functions: a built Query is immutable
// and safe for concurrent use, and the memo that makes every table set be
// estimated once per optimization is the run's costmodel.Model's.
package query

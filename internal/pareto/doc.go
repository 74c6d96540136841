// Package pareto implements the plan archives that drive the pruning of
// the multi-objective dynamic programs: the exact Pareto archive of the
// EXA (paper Algorithm 1, procedure Prune) and the approximate archive of
// the RTA (Algorithm 2, procedure Prune with internal precision αi). An
// archive holds, per table set, the plans whose cost vectors no stored
// plan (approximately) dominates, and selects the final plan by weighted
// cost under optional bounds (the paper's Definition 3 semantics: a
// bound-violating plan is chosen only when no plan respects the bounds).
//
// Two representations implement the same pruning semantics:
//
//   - FlatArchive is the hot-path representation the engine runs on: a
//     struct-of-arrays archive whose cost vectors live in one contiguous
//     []float64 backing array and whose plans are compact plan.Entry
//     records (operator code plus sub-plan references) instead of
//     *plan.Node trees. Insert is allocation-free after warm-up — the
//     active-objective ids and per-objective pruning precisions are
//     resolved once per run into the shared FlatConfig — and dominance
//     checks walk contiguous cost rows instead of chasing pointers. Most
//     inserts do not walk at all: the archive remembers the row that last
//     rejected a candidate and tests it first (the engine offers a table
//     set's candidates in runs of near-copies, and approximate dominance
//     lets one coarse row reject the whole run), then the row a second,
//     caller-owned hint names (InsertRowNear: the engine keeps one per
//     inner sub-plan and operator of the split at hand). A miss of both
//     asks the sum index: while an archive fills, its rows stand in
//     ascending order of their active-objective sum (two-wide, of their
//     first objective), and since floating-point + is monotone only a row
//     whose sum is at most the thresholds' can reject the candidate and
//     only one whose sum is at least the candidate's can be evicted by it
//     (the presorting bound of Sort-Filter-Skyline). Each question is a
//     binary search and one contiguous run of rows, scanned by a
//     width-specialized loop (kernels.go); two-wide, the rows are an
//     antichain and rejection is one row. Seal puts the rows back in
//     storage order — every reader by index calls it, and the engine calls
//     it once per archive, when its set is done. Rejection is existential
//     and changes no state but a counter, so neither hint, nor where a scan
//     starts, nor the rank order ever shows in an archive's contents,
//     order or counters. That argument needs every sum to order its rows:
//     an archive that meets a NaN sum (or, two-wide, a NaN or negative
//     cost) runs insertGeneric, the oracle's whole-archive loops, from then
//     on (FlatArchive.generic).
//     RejectsAll and RejectsAllNear put the two hint tests to a lower
//     bound of several candidates at once (the engine's floor under one
//     operator's DOP variants): a yes is n rejections without a scan,
//     counted as such, a no — a miss or a NaN — is nothing at all, and
//     the candidates come one by one. Neither ever scans, so that
//     sentence still holds; HintRejected counts every candidate answered
//     without a scan, by either row, alone or in a group. HintCovers is
//     the hinted row's test without the count, for a run of candidates
//     that falls under several floors (the engine's block floors, one per
//     operator): the caller asks it of all but the last floor and
//     RejectsAll of the last, so the run is counted once.
//     An archive's rows live where its Arena put them. The engine fills
//     each archive once, on one worker, and then only reads it, so each
//     worker owns an arena of chunks: Open starts an archive at the tail
//     and the archive grows in place; Close seals it and caps both slices
//     at their length, so len == cap, no later append can reach the next
//     archive's rows, and the archive is read-only from then on; the tail
//     moves past it. An archive that outgrows its chunk mid-fill is
//     reallocated by append like any slice and leaves the tail where it
//     was, and the next Open takes a fresh chunk twice the size of the one
//     before. Rules: one writer per arena and one open archive at a time;
//     an arena is never reset or reused, because whoever holds a closed
//     archive (a shared memo, say) keeps its chunk alive. A nil *Arena is
//     the heap (NewFlat, the tests), and where the rows live changes
//     nothing an archive holds or decides.
//   - Archive is the tree-backed representation the seed ran on, kept as
//     the oracle and nothing else: the package's differential tests drive
//     both with identical random cost streams and require identical
//     frontiers and counters, and internal/core's reference engine
//     (reference.go) runs on it. No result is ever converted into one — a
//     finished frontier leaves the engine as FlatArchive.Canonical's rows.
//
// Both archives intentionally mix two relations: a new plan is
// *rejected* if an already-stored plan approximately dominates it, but
// stored plans are *evicted* only if the new plan dominates them exactly.
// The paper points out (end of Section 6.2) that evicting approximately
// dominated plans as well would let stored vectors drift arbitrarily far
// from the true Pareto frontier and destroy the near-optimality guarantee;
// package tests demonstrate that failure mode.
//
// Precision-vector variants (NewPrecisionArchive, NewFlatPrecisionConfig)
// support the per-objective RTA extension of internal/core.RTAVector.
//
// Canonical (ordering by CompareCanonical) and SelectBestRows are the
// row-level primitives behind result reproducibility and frontier reuse:
// every frontier internal/core hands out — a cold run's or a cached
// snapshot's — is ordered by the first and read by the second, which is
// what makes a snapshot-served re-weight answer bit-for-bit equal to a
// cold run's.
package pareto

// Package objective defines the cost objectives of the many-objective
// query optimizer, multi-dimensional cost vectors, user preference vectors
// (weights and bounds), and the dominance relations between cost vectors
// that drive Pareto pruning.
//
// The nine objectives are the ones implemented in the paper's extended
// Postgres cost model (Trummer & Koch, SIGMOD 2014, Section 4): total
// execution time, startup time, IO load, CPU load, number of used cores,
// hard-disk footprint, buffer footprint, energy consumption, and tuple
// loss ratio.
//
// The comparison operations mirror the paper's formal machinery
// (Sections 3 and 6): Dominates is the c1 ⪯ c2 relation, ApproxDominates
// the α-relaxed variant that the RTA's Prune uses, Weights.Cost the
// weighted cost function C_W of weighted MOQO, and Bounds.Respects /
// RespectsRelaxed the (relaxed) bound checks of bounded-weighted MOQO and
// the IRA stopping condition. The Precision vector type generalizes the
// scalar α to per-objective precisions (RTA's Options.Precision); every run's
// pruning plan is one such vector.
package objective

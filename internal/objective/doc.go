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
//
// Set.All is the one walk over an objective set: it yields the active
// objectives in declaration order and allocates nothing, and the dominance
// relations, the weight and precision helpers and the oracles outside this
// package range over it. Set.IDs builds a slice, for callers that keep one.
// Bounds.Respects and RespectsRelaxed, asked once per frontier row, walk the
// set's bits by hand.
package objective

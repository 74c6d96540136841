// Package costmodel implements the nine-objective cost model of the
// reproduction (paper Section 4): total execution time, startup time, IO
// load, CPU load, number of used cores, hard-disk footprint, buffer
// footprint, energy consumption, and tuple loss ratio.
//
// Every recursive cost formula is composed exclusively of the function
// family the paper's PONO analysis covers (Section 6.1): sums, maxima,
// minima, multiplication by per-table-set constants, and the tuple-loss
// formula 1-(1-a)(1-b). Structural induction over these formulas yields
// the principle of near-optimality, which the RTA's correctness proof
// (Theorem 3) rests on; the property-based tests of this package verify
// PONO empirically for every operator.
//
// Cardinalities entering the formulas are table-set constants supplied by
// the query's estimator (memoized per run in the Model, which therefore
// serves one run at a time), never plan-dependent values — the premise of the
// paper's Observation 2 (see DESIGN.md §2 for why sampling must not change
// downstream cardinality estimates if the approximation guarantee is to
// hold).
//
// The join formulas are written in the two halves Observation 2 separates.
// PrepareSplit sees an ordered pair of operand table sets, never a
// sub-plan, and reads what every join over them needs of the query — the
// rows and widths of both sets and of their union, and the logarithms of
// the operands' rows — into a Split. Split.Join and Split.IndexNL turn that
// one value, by arithmetic alone, into an operator's own terms at one DOP —
// hash build and probe, sort and merge, block count, spill I/O, coordinated
// CPU, energy, buffer and disk additions — as a small value (JoinTerms,
// IndexNLTerms). ApplyTo sees two child cost vectors, never the query, and
// is pure arithmetic: no cardinality lookup, no logarithm; it writes into
// the caller's vector, and Apply is ApplyTo into a fresh one. The dynamic
// program prepares each split once, builds its terms for every operator
// and DOP once, and applies once per candidate, into worker scratch;
// PrepareJoin and PrepareIndexNL are a split's preparation and one
// operator's terms back to back, and JoinCost, JoinCostVec, IndexNLCost and
// IndexNLCostVec all three steps, so every operator has one formula. The
// halves keep each expression's shape and evaluation order (oracle_test.go
// freezes the unsplit formulas and compares all nine objectives bit for
// bit), because floating-point arithmetic does not re-associate and the
// engine's differential tests compare archives bitwise; a Split therefore
// holds only looked-up and library-computed values, never a product or sum
// of the formulas (see JoinTerms).
//
// The same function family makes every formula monotone in each of its
// terms, in floating point as on paper: rounding is monotone and every
// operand is non-negative. MinTerms folds an operator's terms over its
// degrees of parallelism into their componentwise minimum; ApplyTo on the
// result is therefore a floor under that operator's cost at every DOP, on
// every objective, for any pair of sub-plans — with no tenth formula
// written down. The engine tests an archive against that floor before it
// costs the variants (core's worker.joinPairs).
//
// The engine also relies on ApplyTo being monotone in the child vectors,
// not only in the terms: the same floor applied to the column minima of a
// set of outer and a set of inner sub-plans is at most every variant over
// every pair of their members, which lets one test stand for a whole run
// of pairs. That holds for the same reason — every child cost enters
// through +, × by a non-negative term or max — and for the tuple loss
// because a sub-plan's loss is a ratio in [0, 1], where 1-(1-a)(1-b) is
// monotone in a and b. TestMinTermsBoundsEveryDOP checks both bounds on
// every split the oracle covers, FuzzMinTermsFloor on arbitrary terms and
// child sets together with the archive-side tests, NaN and +Inf included.
package costmodel

// Package bench is the experiment harness that regenerates the evaluation
// of the paper. Every figure of the paper has a corresponding Figure*
// function returning structured results plus a text renderer:
//
//	Figure 1/2  — running example: weighted vs bounded optima, Pareto
//	              frontier and dominated area (conceptual illustrations).
//	Figure 3    — optimal-plan evolution for TPC-H Q3 under changing
//	              user preferences.
//	Figure 4    — three-dimensional approximate Pareto frontiers for
//	              TPC-H Q5 at two precisions.
//	Figure 5    — cost explosion of the exact algorithm (EXA) across the
//	              TPC-H queries for 1/3/6/9 objectives.
//	Figure 7    — analytic complexity curves (EXA vs RTA vs Selinger).
//	Figure 9    — weighted MOQO: EXA vs RTA at α ∈ {1.15, 1.5, 2}.
//	Figure 10   — bounded MOQO: EXA vs IRA at α ∈ {1.15, 1.5, 2}.
//
// The harness follows the paper's experimental setup (Section 8): per
// query and configuration it generates seeded random test cases (random
// objective subsets, uniform weights, bounds from the objective domain or
// [1,2]× the per-query minimum) and reports timeout percentage,
// optimization time, memory, Pareto-set size / iteration count, and the
// weighted cost of the produced plan relative to the best plan any
// algorithm produced for the same test case.
//
// One companion sits next to the figures: FrontierQuality, the measured
// RTA cover factor against the α guarantee.
//
// Arms lists every experiment cmd/experiments can run. How fast a layer
// or a request is, is measured by the scoreboard in benchmark/, not here;
// what the serving layers guarantee (tenant fairness, the store circuit
// breaker) is asserted by their packages' tests.
package bench

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
// Two companions sit next to the figures — Scaling (optimization time vs
// table count on synthetic queries, the empirical Figure 7) and
// FrontierQuality (measured RTA cover factor vs the α guarantee) — and
// three experiments no scoreboard workload covers, none of which needs a
// knob moqod does not already have:
//
//	TopologyScaling   — the engine's enumeration work across join-graph
//	                    shapes next to the exhaustive count, computed
//	                    (ExhaustiveWork; BENCH_topology.json).
//	TenantLoad        — a light tenant's latency unloaded and under a
//	                    flood of cold DPs (BENCH_tenant.json).
//	ChaosAvailability — serving through a dead store disk, a breaker
//	                    that trips vs a -breaker-threshold the stream
//	                    cannot reach (BENCH_chaos.json).
//
// Arms lists every experiment cmd/experiments can run. How fast a layer
// or a request is, is measured by the scoreboard in benchmark/, not here.
package bench

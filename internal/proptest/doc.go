// Package proptest checks the paper's guarantees against their definitions
// rather than against a second engine. From a seed it draws a small MOQO
// instance (generate); exhaustive costs every plan of the instance's plan
// space — every bushy join tree without cross products, every join
// operator and degree of parallelism, every scan alternative — with
// costmodel and no pruning; and paretoFilter keeps the exact Pareto set of
// that stream in memory proportional to the set, not to the plan space.
//
// The package imports nothing from internal/core: its tests hold the
// engine's answers to what it computes (EXA's frontier is the exact Pareto
// set; RTA's plan is within α of the weighted optimum).
//
// The instances are as small as an unpruned plan space allows: 3–4 tables
// at MaxDOP ≤ 2, a 5-table chain at MaxDOP 1, sampling scans only at 3
// tables. A 4-table chain at MaxDOP 2 has 162 448 plans; 6 tables at
// MaxDOP 4 have 10^10 and more.
package proptest

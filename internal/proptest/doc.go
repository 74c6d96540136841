// Package proptest checks the paper's guarantees against their definitions
// rather than against a second engine. From a seed it draws a small MOQO
// instance (generate: synthetic join graphs; tpchInstance: the TPC-H
// queries of two to four relations); exhaustive costs every plan of the instance's plan
// space — every bushy join tree without cross products, every join
// operator and degree of parallelism, every scan alternative — with
// costmodel and no pruning; and paretoFilter keeps the exact Pareto set of
// that stream in memory proportional to the set, not to the plan space.
//
// The package imports nothing from internal/core: its tests hold the
// engine's answers to what it computes (EXA's frontier is the exact Pareto
// set; RTA's plan is within α of the weighted optimum, and its frontier
// on every connected induced sub-instance (induced) α-covers that
// sub-instance's Pareto set (coverFactor); under drawBounds'
// bounds, IRA's plan is within α of the optimum over the plans that
// respect them, and respects them, whenever one does; a run cut short by
// its deadline returns a valid plan, no snapshot, and nothing to a shared
// memo that a full run would not have put there).
//
// The instances are as small as an unpruned plan space allows: 2–4 tables
// at MaxDOP ≤ 2, a 5-table chain at MaxDOP 1, sampling scans only at ≤ 3
// tables. A 4-table chain at MaxDOP 2 has 162 448 plans; 6 tables at
// MaxDOP 4 have 10^10 and more.
package proptest

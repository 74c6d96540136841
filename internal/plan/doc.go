// Package plan defines query plans and the physical operator space the
// optimizer searches. Mirroring the paper's extended Postgres plan space
// (Section 4), scans come in three flavors — sequential, index, and a
// sampling scan parameterized by a rate between 1% and 5% (the operator
// that makes tuple loss a real tradeoff) — and joins come in four flavors
// — hash, sort-merge, and block-nested-loop joins parameterized by a
// degree of parallelism up to four cores (MaxDOP), plus the inherently
// sequential index-nested-loop join.
//
// A plan node carries its nine-dimensional cost vector (objective.Vector)
// in O(1) space — an operator descriptor, two child pointers and the
// vector — which is what the memory accounting of the paper's Theorem 1
// assumes. The package also renders plans: indented operator trees,
// EXPLAIN-style trees with per-node cardinalities and costs, and a compact
// JSON encoding used by the cmd/moqo CLI and the moqod service, appended
// byte by byte and identical to what encoding/json writes for the same tree.
//
// The dynamic program never builds trees: it stores each candidate as a
// compact Entry, an operator plus references to its sub-plans. A finished
// run's frontier is a closed, densely numbered memo of such entries
// (DenseMemo), and its trees are built once, by the one Materializer:
// every node from one slab, sub-plans cached by number, so the frontier's
// trees share their common subtrees.
package plan

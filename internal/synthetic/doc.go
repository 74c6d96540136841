// Package synthetic generates parameterized join queries — chains, stars,
// cliques, and random connected graphs — against synthetic catalogs. The
// paper's complexity analysis (Theorems 1-5, Figure 7) is stated in terms
// of the number of joined tables n and the maximal cardinality m; this
// package provides workloads in which those parameters can be varied
// freely, supporting the randomized tests of internal/core and
// internal/proptest and the scoreboard's synthetic workloads (benchmark/).
package synthetic

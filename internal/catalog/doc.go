// Package catalog provides the database schema and statistics substrate
// that the optimizer's cost model consumes: base-table cardinalities,
// tuple widths, page counts, available indexes, and join selectivities.
//
// The shipped catalog models the TPC-H schema — the workload the paper
// evaluates on (Section 8) — at a configurable scale factor. The catalog
// is purely statistical; no data is stored, because the optimizer only
// needs estimates, exactly like the Postgres statistics the paper's
// prototype relied on. The maximal base-table cardinality doubles as the
// parameter m of the paper's complexity analysis (Theorems 1-5).
//
// Catalog.Fingerprint hashes the full contents into a stable version
// identifier; the moqod frontier cache keys on it, so cached frontiers
// are invalidated the moment statistics change.
package catalog

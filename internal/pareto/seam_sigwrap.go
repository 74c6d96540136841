//go:build !moqo_mutant_sigwrap

package pareto

// clampTop caps bucket b at the top of its range. It is a mutation seam:
// mutant_sigwrap.go replaces it under the build tag moqo_mutant_sigwrap.
func clampTop(b, top int64) int64 { return min(b, top) }

//go:build moqo_mutant_sigwrap

package pareto

// clampTop, mutated: the bucket wraps instead of clamping above its range,
// so a cost of 2^44 or more (+Inf among them) lands in a low bucket and the
// signature pre-test dismisses rows that answer. The oracle streams
// (TestIndexEdgeStreams, TestKernelMatchesGenericOracle) must fail under
// go test -tags moqo_mutant_sigwrap ./internal/pareto; CI requires it.
func clampTop(b, top int64) int64 { return b & top }

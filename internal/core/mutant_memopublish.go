//go:build moqo_mutant_memopublish

package core

// publishes, mutated: fullSet publishes every archive it closes, so a set cut
// short by a timeout, or built on a degraded lower level, is served to later
// runs as if it were complete. TestDegradedRuns of ./internal/proptest must
// fail under go test -tags moqo_mutant_memopublish; CI requires it.
func (e *engine) publishes(bool) bool { return true }

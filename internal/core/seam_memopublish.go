//go:build !moqo_mutant_memopublish

package core

// publishes reports whether fullSet may publish the archive it just closed to
// the shared memo: only a set treated completely, in a run neither timed out
// nor cancelled (see fullSet). It is a mutation seam: mutant_memopublish.go
// replaces it under the build tag moqo_mutant_memopublish.
func (e *engine) publishes(complete bool) bool {
	return complete && !e.timedOut.Load() && !e.cancelled.Load()
}

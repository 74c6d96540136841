//go:build !moqo_mutant_irabounds

package core

import "moqo/internal/objective"

// iraStopBounds is the bounds iraStop certifies the incumbent against: the
// request's own. It is a mutation seam: mutant_irabounds.go replaces it under
// the build tag moqo_mutant_irabounds.
func iraStopBounds(b objective.Bounds) objective.Bounds { return b }

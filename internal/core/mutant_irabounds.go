//go:build moqo_mutant_irabounds

package core

import "moqo/internal/objective"

// iraStopBounds, mutated: IRA's stopping condition ignores the bounds, so the
// refinement stops as soon as the unbounded optimum is certified and the
// bounded answer may be far from α-optimal. The IRA statement of
// ./internal/proptest must fail under go test -tags moqo_mutant_irabounds;
// CI requires it.
func iraStopBounds(objective.Bounds) objective.Bounds { return objective.NoBounds() }

//go:build moqo_mutant_rtalevel

package core

import "moqo/internal/objective"

// levelPrecision, mutated: every level prunes at the set precision itself, so
// the losses of a set's levels compound to αU^|S| and a sub-join's archive may
// cover its Pareto set only beyond αᵢ^|S|. TestRTACoversEverySubInstance of
// ./internal/proptest must fail under go test -tags moqo_mutant_rtalevel; CI
// requires it.
func levelPrecision(set objective.Precision, _ int) objective.Precision { return set }

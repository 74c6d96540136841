//go:build moqo_mutant_exaprec

package core

import "moqo/internal/objective"

// levelPrecision, mutated: every level of every run prunes at precision
// 1.001, so EXA, asked for the exact Pareto set, may drop a plan within a
// tenth of a percent of another (RTA and IRA only prune finer than their α
// allows, and keep their statements). The EXA statement of the theorem
// harness in ./internal/proptest must fail under go test -tags
// moqo_mutant_exaprec; CI requires it.
func levelPrecision(objective.Precision, int) objective.Precision {
	return objective.UniformPrecision(1.001, objective.AllSet())
}

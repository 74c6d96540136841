//go:build moqo_mutant_rtasquare

package core

import "moqo/internal/objective"

// levelPrecision, mutated: every level prunes at αU² instead of
// αU^(1/|Q|), so an RTA answer may lie far beyond its α-cover. The theorem
// harness of ./internal/proptest (TestGuarantees: RTA's frontier
// α-covers the exhaustive Pareto set) must fail under go test -tags
// moqo_mutant_rtasquare; CI requires it.
func levelPrecision(set objective.Precision, _ int) objective.Precision {
	for i, x := range set {
		set[i] = x * x
	}
	return set
}

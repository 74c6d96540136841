//go:build !moqo_mutant_rtalevel && !moqo_mutant_exaprec && !moqo_mutant_rtasquare

package core

import "moqo/internal/objective"

// levelPrecision turns a run's set precision into the precision every level
// prunes at: the component-wise n-th root, n = |Q| (Algorithm 2's
// αi = αU^(1/|Q|); by Theorem 3's induction the full set is then
// set-approximate). It is a mutation seam: mutant_rtalevel.go,
// mutant_exaprec.go and mutant_rtasquare.go replace it under the build tags
// moqo_mutant_rtalevel, moqo_mutant_exaprec and moqo_mutant_rtasquare.
func levelPrecision(set objective.Precision, n int) objective.Precision { return set.Root(n) }

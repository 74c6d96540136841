package pareto

import (
	"math"

	"moqo/internal/objective"
)

// FilterPareto returns the Pareto-optimal vectors of a set: those not
// strictly dominated by any other vector. Duplicate cost vectors are kept
// once. Useful as an oracle in tests and for frontier exports.
func FilterPareto(vs []objective.Vector, objs objective.Set) []objective.Vector {
	var out []objective.Vector
	for i, v := range vs {
		dominated := false
		duplicate := false
		for j, w := range vs {
			if w.StrictlyDominates(v, objs) {
				dominated = true
				break
			}
			if j < i && w.EqualOn(v, objs) {
				duplicate = true
				break
			}
		}
		if !dominated && !duplicate {
			out = append(out, v)
		}
	}
	return out
}

// IsAlphaCover reports whether the candidate frontier is an α-approximate
// Pareto frontier for the reference set: for every reference vector some
// candidate approximately dominates it with precision alpha (paper's
// definition of an α-approximate Pareto set).
func IsAlphaCover(candidate, reference []objective.Vector, alpha float64, objs objective.Set) bool {
	for _, ref := range reference {
		covered := false
		for _, c := range candidate {
			if c.ApproxDominates(ref, alpha, objs) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// CoverFactor returns the smallest alpha such that candidate is an
// alpha-cover of reference (infinity when some reference vector has a zero
// component that no candidate matches). It quantifies how far an
// approximate frontier drifted from the exact one.
func CoverFactor(candidate, reference []objective.Vector, objs objective.Set) float64 {
	worst := 1.0
	for _, ref := range reference {
		best := math.Inf(1)
		for _, c := range candidate {
			f := 1.0
			ok := true
			for _, o := range objs.IDs() {
				switch {
				case c[o] <= ref[o]:
					// no degradation on this objective
				case ref[o] == 0:
					ok = false
				default:
					f = math.Max(f, c[o]/ref[o])
				}
				if !ok {
					break
				}
			}
			if ok && f < best {
				best = f
			}
		}
		worst = math.Max(worst, best)
	}
	return worst
}

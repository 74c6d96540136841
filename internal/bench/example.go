package bench

import (
	"moqo/internal/objective"
	"moqo/internal/pareto"
)

// RunningExample is the two-dimensional cost-vector set the paper uses to
// illustrate its definitions throughout (Figures 1, 2, 6 and 8): plan cost
// vectors over buffer space and time, user weights, and bounds.
type RunningExample struct {
	// Objectives is {buffer space, time}.
	Objectives objective.Set
	// Points are the plan cost vectors.
	Points []objective.Vector
	// Weights is the user's preference vector of Figure 1.
	Weights objective.Weights
	// Bounds is the bounds vector of Figure 1(b).
	Bounds objective.Bounds
}

// NewRunningExample builds the running example: eight plan cost vectors of
// which four are Pareto-optimal, equal weights on both objectives, and a
// buffer-space bound that excludes the weighted optimum — so the bounded
// variant selects a different plan, as in Figure 1(b).
func NewRunningExample() RunningExample {
	objs := objective.NewSet(objective.BufferFootprint, objective.TotalTime)
	mk := func(buf, time float64) objective.Vector {
		return objective.Vector{}.
			With(objective.BufferFootprint, buf).
			With(objective.TotalTime, time)
	}
	return RunningExample{
		Objectives: objs,
		Points: []objective.Vector{
			mk(0.5, 3), mk(1, 2), mk(2.5, 1), mk(4, 0.5), // Pareto frontier
			mk(2, 3), mk(3, 2.5), mk(1, 3.5), mk(3.5, 2), // dominated
		},
		Weights: objective.UniformWeights(objs),
		Bounds: objective.NoBounds().
			With(objective.BufferFootprint, 0.9),
	}
}

// ParetoFrontier returns the Pareto-optimal vectors of the example
// (Figure 2).
func (e RunningExample) ParetoFrontier() []objective.Vector {
	return pareto.FilterPareto(e.Points, e.Objectives)
}

// WeightedOptimum returns the vector minimizing the weighted cost — the
// optimum of the weighted MOQO variant (Figure 1(a)).
func (e RunningExample) WeightedOptimum() objective.Vector {
	return e.selectBest(objective.NoBounds())
}

// BoundedOptimum returns the optimum of the bounded-weighted variant
// (Figure 1(b)): the weighted minimum among vectors respecting the bounds.
func (e RunningExample) BoundedOptimum() objective.Vector {
	return e.selectBest(e.Bounds)
}

func (e RunningExample) selectBest(b objective.Bounds) objective.Vector {
	var rows []float64
	for _, v := range e.Points {
		rows = append(rows, v[:]...)
	}
	return e.Points[pareto.SelectBestRows(rows, e.Weights, b, e.Objectives)]
}

// ApproximatelyDominated returns, for a given precision alpha, the example
// vectors that are approximately dominated (but not exactly dominated) by
// the given vector — the shaded extra area of Figure 6.
func (e RunningExample) ApproximatelyDominated(by objective.Vector, alpha float64) []objective.Vector {
	var out []objective.Vector
	for _, v := range e.Points {
		if by.ApproxDominates(v, alpha, e.Objectives) && !by.Dominates(v, e.Objectives) {
			out = append(out, v)
		}
	}
	return out
}

// BoundedPathology demonstrates the Figure 8 phenomenon: an α-approximate
// Pareto set that contains no near-optimal plan for a bounded problem.
// It returns a reference frontier, an α-cover of it, and bounds such that
// the cover's best bounded plan is arbitrarily worse than the reference's
// — the reason the IRA needs iterative refinement instead of a fixed
// internal precision.
func BoundedPathology(alpha float64) (reference, cover []objective.Vector, bounds objective.Bounds, objs objective.Set) {
	objs = objective.NewSet(objective.BufferFootprint, objective.TotalTime)
	mk := func(buf, time float64) objective.Vector {
		return objective.Vector{}.
			With(objective.BufferFootprint, buf).
			With(objective.TotalTime, time)
	}
	// The reference frontier holds a cheap plan just inside the buffer
	// bound and an expensive plan well inside it. The cover replaces the
	// cheap plan by a representative within factor alpha — which lands
	// just outside the bound, leaving only the expensive plan feasible.
	bounds = objective.NoBounds().With(objective.BufferFootprint, 1)
	reference = []objective.Vector{mk(1, 1), mk(0.5, 100)}
	cover = []objective.Vector{mk(1*alpha, 1), mk(0.5, 100)}
	return reference, cover, bounds, objs
}

package pareto

import (
	"moqo/internal/objective"
	"moqo/internal/plan"
)

// Archive holds a set of mutually non-dominating plans for one table set.
// Alpha >= 1 is the pruning precision: 1 yields exact Pareto pruning (EXA),
// larger values yield the RTA's approximate pruning. It is the oracle
// FlatArchive is tested against (see the package comment); the engine
// neither runs on it nor returns it.
type Archive struct {
	objs  objective.Set
	alpha float64
	// prec, when non-nil, replaces the scalar alpha with a per-objective
	// precision vector (the beyond-paper per-objective RTA extension).
	prec  *objective.Precision
	plans []*plan.Node

	// inserted and rejected count Insert outcomes for the experiment
	// harness ("number of considered plans").
	inserted, rejected, evicted int
}

// NewArchive creates an archive over the given active objectives with the
// given pruning precision (alpha >= 1; alpha == 1 is exact pruning).
func NewArchive(objs objective.Set, alpha float64) *Archive {
	if alpha < 1 {
		panic("pareto: pruning precision must be >= 1")
	}
	return &Archive{objs: objs, alpha: alpha}
}

// NewPrecisionArchive creates an archive pruning with a per-objective
// precision vector.
func NewPrecisionArchive(objs objective.Set, prec objective.Precision) *Archive {
	if !prec.Valid() {
		panic("pareto: pruning precisions must be >= 1")
	}
	return &Archive{objs: objs, alpha: prec.Max(objs), prec: &prec}
}

// Insert offers a new plan to the archive, implementing the paper's
// Prune(P, pN, αi): if some stored plan approximately dominates the new
// plan it is discarded; otherwise plans that the new plan (exactly)
// dominates are evicted and the new plan is stored. Returns whether the
// plan was stored.
func (a *Archive) Insert(p *plan.Node) bool {
	for _, q := range a.plans {
		if a.approxDominates(q.Cost, p.Cost) {
			a.rejected++
			return false
		}
	}
	keep := a.plans[:0]
	for _, q := range a.plans {
		if p.Cost.Dominates(q.Cost, a.objs) {
			a.evicted++
			continue
		}
		keep = append(keep, q)
	}
	a.plans = append(keep, p)
	a.inserted++
	return true
}

// approxDominates applies the archive's pruning relation: scalar-alpha
// approximate dominance, or per-objective precision when configured.
func (a *Archive) approxDominates(q, p objective.Vector) bool {
	if a.prec != nil {
		return q.ApproxDominatesBy(p, *a.prec, a.objs)
	}
	return q.ApproxDominates(p, a.alpha, a.objs)
}

// Plans returns the stored plans. The returned slice is owned by the
// archive and must not be modified.
func (a *Archive) Plans() []*plan.Node { return a.plans }

// Len returns the number of stored plans.
func (a *Archive) Len() int { return len(a.plans) }

// Stats returns cumulative insert/reject/evict counters.
func (a *Archive) Stats() (inserted, rejected, evicted int) {
	return a.inserted, a.rejected, a.evicted
}

// SelectBest implements the paper's SelectBest(P, W, B): the plan with the
// minimal weighted cost among the stored plans respecting the bounds, or —
// if no stored plan respects the bounds — the minimal weighted cost
// overall. Returns nil only for an empty archive.
func (a *Archive) SelectBest(w objective.Weights, b objective.Bounds) *plan.Node {
	return SelectBest(a.plans, w, b, a.objs)
}

// SelectBest returns the plan minimizing weighted cost among those
// respecting the bounds, falling back to the overall weighted minimum when
// no plan is within bounds (paper Definition 2). Ties break toward the
// earliest plan, keeping results deterministic.
func SelectBest(plans []*plan.Node, w objective.Weights, b objective.Bounds, objs objective.Set) *plan.Node {
	var bestIn, bestAny *plan.Node
	bestInCost, bestAnyCost := 0.0, 0.0
	for _, p := range plans {
		c := w.Cost(p.Cost)
		if bestAny == nil || c < bestAnyCost {
			bestAny, bestAnyCost = p, c
		}
		if b.Respects(p.Cost, objs) && (bestIn == nil || c < bestInCost) {
			bestIn, bestInCost = p, c
		}
	}
	if bestIn != nil {
		return bestIn
	}
	return bestAny
}

// Frontier returns the cost vectors of the stored plans.
func (a *Archive) Frontier() []objective.Vector {
	out := make([]objective.Vector, len(a.plans))
	for i, p := range a.plans {
		out[i] = p.Cost
	}
	return out
}

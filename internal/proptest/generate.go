package proptest

import (
	"fmt"
	"math/rand"

	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
)

// instance is one drawn MOQO problem.
type instance struct {
	seed       int64
	query      *query.Query
	objectives objective.Set
	maxDOP     int
	// sampling puts the sampling scans in the plan space (3 tables only).
	sampling bool
	weights  objective.Weights
	// alpha is the user's approximation precision αU, in [1, 3).
	alpha float64
}

func (in instance) String() string {
	return fmt.Sprintf("seed %d: %s, objectives %v, MaxDOP %d, sampling %v, alpha %v, weights %v",
		in.seed, in.query.Name, in.objectives, in.maxDOP, in.sampling, in.alpha, in.weights)
}

// shapes are the topologies of 3- and 4-table instances.
var shapes = []synthetic.Shape{synthetic.Chain, synthetic.Star, synthetic.Cycle, synthetic.Clique, synthetic.RandomTree}

// generate draws the instance of a seed: one in five is a 5-table chain at
// MaxDOP 1; the rest are 3 or 4 tables of any topology at MaxDOP 1 or 2,
// and at 3 tables the sampling scans are in the plan space half the time.
// Tables have up to 10^6 rows. Two to four objectives are active, each
// weighted by a draw from [0, 1) — the first one by at least 0.1, so the
// weighted cost is never identically zero.
func generate(seed int64) instance {
	r := rand.New(rand.NewSource(seed))
	in := instance{seed: seed, maxDOP: 1}
	spec := synthetic.Spec{Shape: synthetic.Chain, Tables: 5, MaxRows: 1e6, Seed: seed}
	if r.Intn(5) != 0 {
		spec.Shape = shapes[r.Intn(len(shapes))]
		spec.Tables = 3 + r.Intn(2)
		in.maxDOP = 1 + r.Intn(2)
		in.sampling = spec.Tables == 3 && r.Intn(2) == 0
	}
	_, in.query = synthetic.MustBuild(spec)

	all := objective.All()
	perm := r.Perm(len(all))
	for i, k := range perm[:2+r.Intn(3)] {
		o := all[k]
		in.objectives = in.objectives.Add(o)
		in.weights[o] = r.Float64()
		if i == 0 {
			in.weights[o] += 0.1
		}
	}
	in.alpha = 1 + 2*r.Float64()
	return in
}

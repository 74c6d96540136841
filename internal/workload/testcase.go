package workload

import (
	"fmt"
	"math/rand"

	"moqo/internal/objective"
	"moqo/internal/query"
)

// TestCase is one randomized MOQO problem instance, generated as in the
// paper's experimental setup (Section 8): a query, a random subset of
// objectives, uniform random weights on the selected objectives, and — for
// bounded MOQO — bounds on a subset of the selected objectives.
type TestCase struct {
	Query      *query.Query
	Objectives objective.Set
	Weights    objective.Weights
	Bounds     objective.Bounds
}

// Bounded reports whether the test case carries any finite bound.
func (tc TestCase) Bounded() bool { return !tc.Bounds.Unbounded(tc.Objectives) }

// String summarizes the test case.
func (tc TestCase) String() string {
	kind := "weighted"
	if tc.Bounded() {
		kind = "bounded"
	}
	return fmt.Sprintf("%s/%s objs=%s", tc.Query.Name, kind, tc.Objectives)
}

// randomObjectives draws a uniform random subset of the nine objectives
// with the given cardinality.
func randomObjectives(r *rand.Rand, k int) objective.Set {
	if k < 1 || k > int(objective.NumObjectives) {
		panic(fmt.Sprintf("workload: objective count %d out of range", k))
	}
	perm := r.Perm(int(objective.NumObjectives))
	var s objective.Set
	for _, i := range perm[:k] {
		s = s.Add(objective.ID(i))
	}
	return s
}

// randomWeights draws uniform [0,1] weights on the objectives of the set.
func randomWeights(r *rand.Rand, objs objective.Set) objective.Weights {
	var w objective.Weights
	for o := range objs.All() {
		w[o] = r.Float64()
	}
	return w
}

// WeightedCase generates a weighted MOQO test case for the given query with
// numObjectives randomly selected objectives and uniform random weights.
func WeightedCase(q *query.Query, numObjectives int, r *rand.Rand) TestCase {
	objs := randomObjectives(r, numObjectives)
	return TestCase{
		Query:      q,
		Objectives: objs,
		Weights:    randomWeights(r, objs),
		Bounds:     objective.NoBounds(),
	}
}

// BoundedCase generates a bounded MOQO test case: all nine objectives are
// active (as in the paper's Figure 10 setup), weights are uniform random,
// and numBounds randomly chosen objectives receive bounds. Bounds for
// objectives with an a-priori bounded domain (tuple loss) are drawn
// uniformly from the domain; bounds for unbounded-domain objectives are the
// per-query minimum multiplied by a uniform [1,2] factor. The minima vector
// must hold, per objective, the minimal achievable cost for the query
// (computed by single-objective optimization; see core.ObjectiveMinima).
func BoundedCase(q *query.Query, numBounds int, minima objective.Vector, r *rand.Rand) TestCase {
	objs := objective.AllSet()
	if numBounds < 1 || numBounds > objs.Len() {
		panic(fmt.Sprintf("workload: bound count %d out of range", numBounds))
	}
	tc := TestCase{
		Query:      q,
		Objectives: objs,
		Weights:    randomWeights(r, objs),
		Bounds:     objective.NoBounds(),
	}
	ids := objs.IDs()
	perm := r.Perm(len(ids))
	for _, i := range perm[:numBounds] {
		o := ids[i]
		if o.Bounded() {
			tc.Bounds = tc.Bounds.With(o, r.Float64()*o.DomainMax())
		} else {
			tc.Bounds = tc.Bounds.With(o, minima[o]*(1+r.Float64()))
		}
	}
	return tc
}

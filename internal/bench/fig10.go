package bench

import (
	"math/rand"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/workload"
)

// Figure10 reproduces the paper's Figure 10: the bounded-MOQO comparison
// of the EXA against the IRA at α ∈ Alphas. All nine objectives are always
// active; the number of bounded objectives varies over BoundCounts (paper:
// 3, 6, 9). Bounds on unbounded-domain objectives are drawn from [1,2]
// times the per-query minimum (computed by single-objective optimization);
// bounds on tuple loss are drawn uniformly from [0,1]. Reported per
// (query, #bounds): timeout percentage, average time, memory of the last
// iteration, IRA iteration count, and weighted cost relative to the best
// compared plan.
func Figure10(cfg Config) ([]Row, error) {
	counts := cfg.BoundCounts
	if len(counts) == 0 {
		counts = []int{3, 6, 9}
	}
	algs := []namedAlgo{exaAlgo(cfg)}
	for _, a := range cfg.Alphas {
		algs = append(algs, iraAlgo(a, cfg))
	}
	return cfg.figureRows("fig10", counts, algs, func(q *query.Query, m *costmodel.Model) (caseGen, error) {
		// Minima over all nine objectives: sampling availability must match
		// the bounded runs, where tuple loss is active too.
		minima, err := core.ObjectiveMinima(m, cfg.engine(objective.AllSet(), 0))
		return func(k int, r *rand.Rand) workload.TestCase { return workload.BoundedCase(q, k, minima, r) }, err
	})
}

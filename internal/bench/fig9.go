package bench

// Figure9 reproduces the paper's Figure 9: the weighted-MOQO comparison of
// the EXA against the RTA at α ∈ Alphas over the TPC-H queries with 3, 6
// and 9 objectives. Reported per (query, #objectives): timeout percentage,
// average optimization time, memory, Pareto-plan count of the last
// completely treated table set, and the weighted cost of the produced plan
// as a percentage of the best plan produced by any compared algorithm on
// the same test case.
func Figure9(cfg Config) ([]Row, error) {
	counts := cfg.ObjectiveCounts
	if len(counts) == 0 {
		counts = []int{3, 6, 9}
	}
	algs := []namedAlgo{exaAlgo(cfg)}
	for _, a := range cfg.Alphas {
		algs = append(algs, rtaAlgo(a, cfg))
	}
	return cfg.figureRows("fig9", counts, algs, weightedCases)
}

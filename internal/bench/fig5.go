package bench

// Figure5 reproduces the paper's Figure 5: the performance of the exact
// algorithm (EXA) on the TPC-H queries for 1, 3, 6 and 9 objectives —
// optimization time, allocated memory, and the number of Pareto plans of
// the last completely treated table set, with timeout markers. Every
// reported value is the average over CasesPerConfig random test cases.
func Figure5(cfg Config) ([]Row, error) {
	counts := cfg.ObjectiveCounts
	if len(counts) == 0 {
		counts = []int{1, 3, 6, 9}
	}
	// Figure 5 includes the single-objective baseline measurement.
	if counts[0] != 1 {
		counts = append([]int{1}, counts...)
	}
	return cfg.figureRows("fig5", counts, []namedAlgo{exaAlgo(cfg)}, weightedCases)
}

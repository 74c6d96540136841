package bench

import (
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/workload"
)

// EvolutionStep is one preference setting of the Figure 3 experiment and
// the optimal plan under it.
type EvolutionStep struct {
	Description string
	Weights     objective.Weights
	Bounds      objective.Bounds
	Plan        *plan.Node
	PlanText    string
}

// Figure3Objectives is the objective set of the plan-evolution experiment:
// the objectives whose weights and bounds the paper varies in Figure 3.
var Figure3Objectives = objective.NewSet(
	objective.TotalTime, objective.StartupTime,
	objective.BufferFootprint, objective.TupleLoss,
)

// Figure3 reproduces the paper's Figure 3: the evolution of the optimal
// plan for TPC-H query 3 as user preferences change. Step 1 bounds tuple
// loss to zero and minimizes total time alone (time-optimal plan without
// sampling, hash joins in the paper). Step 2 adds weight on buffer
// footprint (the paper's plan drops the memory-hungry hash joins). Step 3
// additionally bounds startup time (the paper's plan switches to pipelined
// index-nested-loop joins).
func Figure3(cfg Config) ([]EvolutionStep, error) {
	cat := cfg.catalog()
	q := workload.MustQuery(3, cat)
	m := costmodel.NewDefault(q)

	ctx, cancel := cfg.deadline()
	minima, err := core.ObjectiveMinimaContext(ctx, m, cfg.engine(Figure3Objectives, 0))
	cancel()
	if err != nil {
		return nil, err
	}

	// The buffer weight trades one kilobyte of buffer space for about one
	// millisecond — enough to push the optimizer from memory-hungry hash
	// joins to bounded-memory sort-merge joins, as in the paper's
	// Figure 3(b). The startup bound then demands a pipelined plan within
	// 10x of the minimal achievable startup time, forcing index-nested-
	// loop joins as in Figure 3(c).
	const bufferWeightPerByte = 1.0 / 1024
	startupBound := minima[objective.StartupTime] * 10

	steps := []EvolutionStep{
		{
			Description: "time-optimal plan for bounded tuple loss (= 0)",
			Weights:     objective.SingleWeight(objective.TotalTime),
			Bounds:      objective.NoBounds().With(objective.TupleLoss, 0),
		},
		{
			Description: "additional weight on buffer space",
			Weights: objective.SingleWeight(objective.TotalTime).
				With(objective.BufferFootprint, bufferWeightPerByte),
			Bounds: objective.NoBounds().With(objective.TupleLoss, 0),
		},
		{
			Description: "additional bound on startup time",
			Weights: objective.SingleWeight(objective.TotalTime).
				With(objective.BufferFootprint, bufferWeightPerByte),
			Bounds: objective.NoBounds().
				With(objective.TupleLoss, 0).
				With(objective.StartupTime, startupBound),
		},
	}
	for i := range steps {
		ctx, cancel := cfg.deadline()
		res, err := core.EXAContext(ctx, m, steps[i].Weights, steps[i].Bounds, cfg.engine(Figure3Objectives, 0))
		cancel()
		if err != nil {
			return nil, err
		}
		steps[i].Plan = res.Best
		steps[i].PlanText = res.Best.Format(q)
	}
	return steps, nil
}

package bench

import (
	"sort"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/workload"
)

// FrontierPoint is one plan of the Figure 4 Pareto surface: tuple loss,
// buffer footprint (bytes), and total time for TPC-H Q5.
type FrontierPoint struct {
	TupleLoss float64
	Buffer    float64
	Time      float64
}

// Figure4Result holds one approximate three-dimensional Pareto frontier.
type Figure4Result struct {
	Alpha  float64
	Points []FrontierPoint
	Stats  core.Stats
}

// Figure4Objectives is the objective set of the Figure 4 experiment.
var Figure4Objectives = objective.NewSet(objective.TupleLoss, objective.BufferFootprint, objective.TotalTime)

// Figure4 reproduces the paper's Figure 4: approximate Pareto frontiers of
// TPC-H query 5 over tuple loss, buffer footprint and total time, computed
// by the RTA at a coarse precision (paper: α = 2) and a fine precision
// (α = 1.25). The finer frontier resolves more tradeoff points.
func Figure4(cfg Config, alphas ...float64) ([]Figure4Result, error) {
	if len(alphas) == 0 {
		alphas = []float64{2, 1.25}
	}
	cat := cfg.catalog()
	q := workload.MustQuery(5, cat)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(Figure4Objectives)

	var out []Figure4Result
	for _, alpha := range alphas {
		ctx, cancel := cfg.deadline()
		res, err := core.RTAContext(ctx, m, w, cfg.engine(Figure4Objectives, alpha))
		cancel()
		if err != nil {
			return nil, err
		}
		pts := make([]FrontierPoint, 0, res.Frontier.Len())
		for _, p := range res.Frontier.Plans() {
			pts = append(pts, FrontierPoint{
				TupleLoss: p.Cost[objective.TupleLoss],
				Buffer:    p.Cost[objective.BufferFootprint],
				Time:      p.Cost[objective.TotalTime],
			})
		}
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].TupleLoss != pts[j].TupleLoss {
				return pts[i].TupleLoss < pts[j].TupleLoss
			}
			if pts[i].Buffer != pts[j].Buffer {
				return pts[i].Buffer < pts[j].Buffer
			}
			return pts[i].Time < pts[j].Time
		})
		out = append(out, Figure4Result{Alpha: alpha, Points: pts, Stats: res.Stats})
	}
	return out, nil
}

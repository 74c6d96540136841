package bench

import (
	"fmt"
	"strings"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/workload"
)

// QualityRow measures, for one query and one precision, how far the RTA's
// approximate Pareto frontier actually drifted from the exact frontier —
// the empirical counterpart of the Theorem 3 guarantee, and the frontier-
// level analogue of the paper's observation that measured plan quality is
// far better than the worst-case bound ("average cost overhead of below
// 1% — 100 times better than the theoretical bound").
type QualityRow struct {
	QueryNum int
	Alpha    float64
	// ExactSize and ApproxSize are the frontier cardinalities.
	ExactSize, ApproxSize int
	// CoverFactor is the smallest alpha' such that the approximate
	// frontier alpha'-covers the exact one; the guarantee is
	// CoverFactor <= Alpha.
	CoverFactor float64
	// GuaranteeHolds reports CoverFactor <= Alpha (modulo epsilon).
	GuaranteeHolds bool
}

// QualityObjectives is the objective set of the frontier-quality
// experiment (three objectives keep exact optimization tractable).
var QualityObjectives = objective.NewSet(
	objective.TotalTime, objective.BufferFootprint, objective.Energy,
)

// FrontierQuality compares RTA frontiers against exact EXA frontiers for
// the configured queries and precisions. Queries whose exact optimization
// hits the timeout are skipped (no reference frontier).
func FrontierQuality(cfg Config) ([]QualityRow, error) {
	var rows []QualityRow
	for _, qn := range cfg.queries() {
		q := workload.MustQuery(qn, cfg.catalog())
		m := costmodel.NewDefault(q)
		w := objective.UniformWeights(QualityObjectives)
		ctx, cancel := cfg.deadline()
		exact, err := core.EXAContext(ctx, m, w, objective.NoBounds(), cfg.engine(QualityObjectives, 0))
		cancel()
		if err != nil {
			return nil, err
		}
		if exact.Stats.TimedOut {
			continue
		}
		ref := exact.Frontier.Frontier()
		for _, alpha := range cfg.Alphas {
			ctx, cancel := cfg.deadline()
			approx, err := core.RTAContext(ctx, m, w, cfg.engine(QualityObjectives, alpha))
			cancel()
			if err != nil {
				return nil, err
			}
			cf := pareto.CoverFactor(approx.Frontier.Frontier(), ref, QualityObjectives)
			rows = append(rows, QualityRow{
				QueryNum:       qn,
				Alpha:          alpha,
				ExactSize:      len(ref),
				ApproxSize:     approx.Frontier.Len(),
				CoverFactor:    cf,
				GuaranteeHolds: cf <= alpha*(1+1e-9),
			})
		}
	}
	return rows, nil
}

// RenderQuality renders frontier-quality rows as a text table.
func RenderQuality(rows []QualityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-7s %8s %8s %12s %10s\n",
		"query", "alpha", "#exact", "#approx", "cover-factor", "guarantee")
	for _, r := range rows {
		ok := "OK"
		if !r.GuaranteeHolds {
			ok = "VIOLATED"
		}
		fmt.Fprintf(&b, "q%-4d %-7.4g %8d %8d %12.4f %10s\n",
			r.QueryNum, r.Alpha, r.ExactSize, r.ApproxSize, r.CoverFactor, ok)
	}
	return b.String()
}

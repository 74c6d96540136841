package bench

import (
	"fmt"
	"strings"
	"time"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// ScalingPoint is one measured x-position of the empirical scaling
// experiment: wall-clock optimization time per algorithm for joining n
// tables.
type ScalingPoint struct {
	N int
	// TimeMs maps algorithm name to average optimization time.
	TimeMs map[string]float64
	// TimedOut maps algorithm name to whether any run hit the timeout
	// (its time is then a lower bound, as in the paper's figures).
	TimedOut map[string]bool
	// Pareto maps algorithm name to the average final frontier size.
	Pareto map[string]float64
}

// ScalingSpec parameterizes the empirical scaling experiment.
type ScalingSpec struct {
	// Shape of the synthetic join graph (default Chain).
	Shape synthetic.Shape
	// MinTables and MaxTables bound the x-axis (defaults 2 and 7).
	MinTables, MaxTables int
	// MaxRows is the maximal base-table cardinality m (default 1e5).
	MaxRows float64
	// Alphas are the RTA precisions (default {1.05, 1.5}, as Figure 7).
	Alphas []float64
	// Repeats averages each point over several seeds (default 3).
	Repeats int
	// Timeout per run.
	Timeout time.Duration
	// Seed of the synthetic workload.
	Seed int64
	// Workers shards each optimizer run's dynamic program across this
	// many goroutines (core.Options.Workers). 0 or 1 = sequential.
	Workers int
}

// scalingObjectives is the objective set of the multi-objective runs: three
// objectives, matching Figure 7's l = 3.
var scalingObjectives = objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)

// withDefaults fills in the Figure 7 defaults.
func (s ScalingSpec) withDefaults() ScalingSpec {
	if s.MinTables == 0 {
		s.MinTables = 2
	}
	if s.MaxTables == 0 {
		s.MaxTables = 7
	}
	if s.MaxRows == 0 {
		s.MaxRows = 1e5
	}
	if len(s.Alphas) == 0 {
		s.Alphas = []float64{1.05, 1.5}
	}
	if s.Repeats == 0 {
		s.Repeats = 3
	}
	if s.Timeout == 0 {
		s.Timeout = 2 * time.Second
	}
	return s
}

// Scaling measures optimization time against the number of joined tables
// for the EXA, the RTA at the spec's precisions, and the single-objective
// Selinger baseline, on synthetic queries — the empirical counterpart of
// the paper's analytic Figure 7. The qualitative expectations are that
// Selinger stays negligible, the RTA grows like the single-objective
// algorithm times a polynomial factor, and the EXA leaves both behind
// (hitting the timeout first).
func Scaling(spec ScalingSpec) ([]ScalingPoint, error) {
	spec = spec.withDefaults()
	if spec.MinTables < 1 || spec.MaxTables < spec.MinTables {
		return nil, fmt.Errorf("bench: bad scaling range [%d, %d]", spec.MinTables, spec.MaxTables)
	}
	var out []ScalingPoint
	for n := spec.MinTables; n <= spec.MaxTables; n++ {
		pt := ScalingPoint{
			N:        n,
			TimeMs:   map[string]float64{},
			TimedOut: map[string]bool{},
			Pareto:   map[string]float64{},
		}
		for rep := 0; rep < spec.Repeats; rep++ {
			_, q, err := synthetic.Build(synthetic.Spec{
				Shape:   spec.Shape,
				Tables:  n,
				MaxRows: spec.MaxRows,
				Seed:    spec.Seed + int64(rep),
			})
			if err != nil {
				return nil, err
			}
			m := costmodel.NewDefault(q)
			w := objective.UniformWeights(scalingObjectives)
			opts := core.Options{Objectives: scalingObjectives, Timeout: spec.Timeout, Workers: spec.Workers}

			record := func(name string, res core.Result, err error) error {
				if err != nil {
					return err
				}
				pt.TimeMs[name] += float64(res.Stats.Duration) / float64(time.Millisecond) / float64(spec.Repeats)
				pt.TimedOut[name] = pt.TimedOut[name] || res.Stats.TimedOut
				pt.Pareto[name] += float64(res.Frontier.Len()) / float64(spec.Repeats)
				return nil
			}

			res, err := core.EXA(m, w, objective.NoBounds(), opts)
			if err := record("EXA", res, err); err != nil {
				return nil, err
			}
			for _, alpha := range spec.Alphas {
				ro := opts
				ro.Alpha = alpha
				res, err := core.RTA(m, w, ro)
				if err := record(fmt.Sprintf("RTA(%.4g)", alpha), res, err); err != nil {
					return nil, err
				}
			}
			res, err = core.Selinger(m, objective.TotalTime, opts)
			if err := record("Selinger", res, err); err != nil {
				return nil, err
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderScaling renders scaling measurements as a text table. Algorithm
// columns follow the order of the spec that produced the points.
func RenderScaling(pts []ScalingPoint, spec ScalingSpec) string {
	spec = spec.withDefaults()
	names := []string{"EXA"}
	for _, a := range spec.Alphas {
		names = append(names, fmt.Sprintf("RTA(%.4g)", a))
	}
	names = append(names, "Selinger")

	var b strings.Builder
	fmt.Fprintf(&b, "%3s", "n")
	for _, n := range names {
		fmt.Fprintf(&b, " %16s", n+" (ms)")
	}
	b.WriteString("\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%3d", p.N)
		for _, n := range names {
			mark := ""
			if p.TimedOut[n] {
				mark = ">" // timed out: lower bound
			}
			fmt.Fprintf(&b, " %16s", fmt.Sprintf("%s%.2f", mark, p.TimeMs[n]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

package bench

import (
	"fmt"
	"strings"

	"moqo/internal/objective"
	"moqo/internal/viz"
)

// Arm is one experiment of cmd/experiments.
type Arm struct {
	// Name is the -fig value that selects the arm.
	Name string
	// Title heads the arm's section of the report.
	Title string
	// All reports whether -fig all includes the arm.
	All bool
	// Run measures the arm and renders the result.
	Run func(Config) (Report, error)
}

// Report is what an arm produced: the text for the terminal and the
// machine-readable files (CSV, SVG, JSON) written under -out.
type Report struct {
	Text  string
	Files []File
}

// File is one named output file of a Report.
type File struct {
	Name string
	Data []byte
}

const exampleTitle = "Figures 1-2: running example (weighted vs bounded MOQO, Pareto frontier)"

// Arms is the one list of experiments, in report order: the paper's
// figures with their two companions (scaling, quality), then the three
// experiments no benchmark/ workload covers: the enumeration's work across
// join-graph shapes against the exhaustive count, a light tenant under a
// flood, and a dead store disk under two -breaker-threshold settings.
// How fast anything is, is the scoreboard's question (benchmark/), not
// this table's.
var Arms = []Arm{
	{"1", exampleTitle, true, runExample},
	{"2", exampleTitle, false, runExample}, // the same section under its other figure number
	{"3", "Figure 3: optimal-plan evolution for TPC-H Q3 under changing preferences", true, runFigure3},
	{"4", "Figure 4: 3-D approximate Pareto frontiers for TPC-H Q5 (loss x buffer x time)", true, runFigure4},
	{"5", "Figure 5: exact algorithm (EXA) on TPC-H — time, memory, Pareto plans", true, rowsArm(Figure5, "objs", "fig5.csv")},
	{"7", "Figure 7: analytic time complexity (j=6, l=3, m=1e5)", true, runFigure7},
	{"9", "Figure 9: weighted MOQO — EXA vs RTA", true, rowsArm(Figure9, "objs", "fig9.csv")},
	{"10", "Figure 10: bounded MOQO — EXA vs IRA", true, rowsArm(Figure10, "bounds", "fig10.csv")},
	{"scaling", "Empirical scaling (companion to Figure 7): optimization time vs #tables", true, runScaling},
	{"topology", "Enumeration topology scaling: connected-subgraph enumeration vs the exhaustive count", true, runTopology},
	{"tenant", "Multi-tenant serving: light-tenant latency under a flood of cold DPs", true, runTenant},
	{"chaos", "Disk chaos: serving through a dead frontier-store disk, breaker tripping vs never", true, runChaos},
	{"quality", "Frontier quality: measured RTA cover factor vs the alpha guarantee", true, runQuality},
}

func runExample(Config) (Report, error) {
	e := NewRunningExample()
	toXY := func(vs []objective.Vector) [][2]float64 {
		out := make([][2]float64, len(vs))
		for i, v := range vs {
			out[i] = [2]float64{v[objective.BufferFootprint], v[objective.TotalTime]}
		}
		return out
	}
	w, b := e.WeightedOptimum(), e.BoundedOptimum()
	var t strings.Builder
	fmt.Fprintln(&t, "plan cost vectors (o) and Pareto frontier (*):")
	fmt.Fprintln(&t, Scatter(toXY(e.Points), toXY(e.ParetoFrontier()), 40, 12, "buffer space", "time"))
	fmt.Fprintf(&t, "weighted optimum:        buffer=%.1f time=%.1f (weighted cost %.1f)\n",
		w[objective.BufferFootprint], w[objective.TotalTime], e.Weights.Cost(w))
	fmt.Fprintf(&t, "bounded optimum (B=%.1f): buffer=%.1f time=%.1f — the bound changes the optimal plan\n",
		e.Bounds[objective.BufferFootprint], b[objective.BufferFootprint], b[objective.TotalTime])
	return Report{Text: t.String()}, nil
}

func runFigure3(cfg Config) (Report, error) {
	steps, err := Figure3(cfg)
	return Report{Text: RenderEvolution(steps)}, err
}

func runFigure4(cfg Config) (Report, error) {
	res, err := Figure4(cfg)
	var rep Report
	for _, r := range res {
		rep.Text += RenderFrontier(r) + "\n"
		vectors := make([]objective.Vector, len(r.Points))
		for i, p := range r.Points {
			vectors[i] = objective.Vector{}.
				With(objective.TupleLoss, p.TupleLoss).
				With(objective.BufferFootprint, p.Buffer).
				With(objective.TotalTime, p.Time)
		}
		title := fmt.Sprintf("TPC-H Q5 approximate Pareto frontier (alpha=%.4g)", r.Alpha)
		svg := viz.Scatter3D(vectors, objective.TupleLoss, objective.BufferFootprint,
			objective.TotalTime, viz.DefaultStyle(title))
		name := fmt.Sprintf("fig4_alpha%.4g", r.Alpha)
		rep.Files = append(rep.Files, File{name + ".csv", []byte(FrontierCSV(r))}, File{name + ".svg", []byte(svg)})
	}
	return rep, err
}

// rowsArm is the arm of a Figure 5/9/10 experiment: the aligned table,
// and the same rows as CSV.
func rowsArm(figure func(Config) ([]Row, error), param, csv string) func(Config) (Report, error) {
	return func(cfg Config) (Report, error) {
		rows, err := figure(cfg)
		return Report{Text: RenderRows(rows, param), Files: []File{{csv, []byte(RowsCSV(rows, param))}}}, err
	}
}

func runFigure7(Config) (Report, error) {
	return Report{Text: RenderComplexity(Figure7(DefaultComplexityParams()))}, nil
}

func runScaling(cfg Config) (Report, error) {
	spec := ScalingSpec{Timeout: cfg.Timeout, Seed: cfg.Seed, Workers: cfg.EngineWorkers}
	pts, err := Scaling(spec)
	return Report{Text: "synthetic chain queries, m=1e5, three objectives; '>' marks timeout (lower bound):\n" +
		RenderScaling(pts, spec)}, err
}

func runQuality(cfg Config) (Report, error) {
	rows, err := FrontierQuality(cfg)
	return Report{Text: "(queries whose exact optimization timed out are skipped)\n" + RenderQuality(rows)}, err
}

// runTopology deliberately ignores cfg.Timeout: the flag's 2s default
// (tuned for the paper figures) would truncate the largest star and clique
// runs into degraded lower bounds, so the experiment keeps TopologySpec's
// own 60s per-run ceiling.
func runTopology(cfg Config) (Report, error) {
	spec := cfg.Topology
	spec.Seed, spec.Workers = cfg.Seed, cfg.EngineWorkers
	pts, err := TopologyScaling(spec)
	if err != nil {
		return Report{}, err
	}
	file, err := benchJSON("topology", "enumeration-topology-scaling", pts, nil)
	return Report{Text: "synthetic queries, two objectives, RTA alpha=3, Workers=1; scan splits is what an\n" +
		"exhaustive enumeration visits on the same query (computed, not run):\n" +
		RenderTopology(pts), Files: []File{file}}, err
}

func runTenant(cfg Config) (Report, error) {
	pts, sum, err := TenantLoad(cfg.Tenant)
	if err != nil {
		return Report{}, err
	}
	file, err := benchJSON("tenant", "moqod-tenant-fairness", pts, sum)
	return Report{Text: "flood = distinct cold EXA chains (nothing caches); light = re-weights of one\n" +
		"warmed RTA chain; the fair scheduler gates only cold DPs, so re-weights never queue:\n" +
		RenderTenantLoad(pts, sum), Files: []File{file}}, err
}

func runChaos(cfg Config) (Report, error) {
	pts, sum, err := ChaosAvailability(cfg.Chaos)
	if err != nil {
		return Report{}, err
	}
	file, err := benchJSON("chaos", "moqod-disk-chaos-availability", pts, sum)
	return Report{Text: "the disk hangs 10ms then fails on every operation; a tiny frontier memory tier\n" +
		"keeps the store on the hot path; no-breaker = a threshold the stream cannot reach;\n" +
		"answers are verified against a fault-free run:\n" +
		RenderChaos(pts, sum), Files: []File{file}}, err
}

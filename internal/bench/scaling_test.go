package bench

import (
	"strings"
	"testing"
	"time"

	"moqo/internal/synthetic"
)

func quickScalingSpec() ScalingSpec {
	return ScalingSpec{
		Shape:     synthetic.Chain,
		MinTables: 2,
		MaxTables: 4,
		MaxRows:   1e4,
		Alphas:    []float64{1.5},
		Repeats:   1,
		Timeout:   2 * time.Second,
		Seed:      11,
	}
}

func TestScaling(t *testing.T) {
	spec := quickScalingSpec()
	pts, err := Scaling(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3 (n=2..4)", len(pts))
	}
	for _, p := range pts {
		for _, name := range []string{"EXA", "RTA(1.5)", "Selinger"} {
			if _, ok := p.TimeMs[name]; !ok {
				t.Fatalf("n=%d: missing algorithm %q", p.N, name)
			}
			if p.TimeMs[name] < 0 {
				t.Errorf("n=%d %s: negative time", p.N, name)
			}
		}
		// The exact Pareto set is at least as large as the approximate
		// one, and the single-objective DP keeps exactly one plan.
		if !p.TimedOut["EXA"] && p.Pareto["EXA"] < p.Pareto["RTA(1.5)"] {
			t.Errorf("n=%d: EXA frontier %v smaller than RTA's %v", p.N, p.Pareto["EXA"], p.Pareto["RTA(1.5)"])
		}
		if p.Pareto["Selinger"] != 1 {
			t.Errorf("n=%d: Selinger frontier %v, want 1", p.N, p.Pareto["Selinger"])
		}
	}
	// At the largest n, multi-objective optimization must cost more than
	// the single-objective baseline.
	last := pts[len(pts)-1]
	if last.TimeMs["EXA"] < last.TimeMs["Selinger"] {
		t.Errorf("n=%d: EXA (%vms) cheaper than Selinger (%vms)", last.N,
			last.TimeMs["EXA"], last.TimeMs["Selinger"])
	}
}

func TestScalingErrors(t *testing.T) {
	if _, err := Scaling(ScalingSpec{MinTables: 5, MaxTables: 3}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestRenderScaling(t *testing.T) {
	spec := quickScalingSpec()
	pts := []ScalingPoint{
		{
			N:        2,
			TimeMs:   map[string]float64{"EXA": 1.5, "RTA(1.5)": 0.5, "Selinger": 0.1},
			TimedOut: map[string]bool{"EXA": true},
			Pareto:   map[string]float64{},
		},
	}
	out := RenderScaling(pts, spec)
	for _, want := range []string{"EXA", "RTA(1.5)", "Selinger", ">1.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

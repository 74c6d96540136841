package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// smallTopologySpec keeps the experiment harness test fast.
func smallTopologySpec() TopologySpec {
	return TopologySpec{
		Arms: []TopologyArm{
			{synthetic.Chain, []int{8}},
			{synthetic.Cycle, []int{7}},
			{synthetic.Clique, []int{4}},
		},
		Timeout: 30 * time.Second,
		Seed:    1,
	}
}

func TestTopologyScaling(t *testing.T) {
	pts, err := TopologyScaling(smallTopologySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for _, p := range pts {
		if p.Run.TimedOut {
			t.Errorf("%s-%d: timed out", p.Shape, p.N)
		}
		if p.ExhaustiveSets != 1<<p.N-1 {
			t.Errorf("%s-%d: exhaustive sets %d, want 2^n-1", p.Shape, p.N, p.ExhaustiveSets)
		}
		if p.Run.EnumSplits > p.ExhaustiveSplits {
			t.Errorf("%s-%d: the engine visited %d splits, more than the exhaustive %d",
				p.Shape, p.N, p.Run.EnumSplits, p.ExhaustiveSplits)
		}
		if p.Shape != "clique" && p.SplitReduction <= 1 {
			t.Errorf("%s-%d: split reduction %.2f, want > 1", p.Shape, p.N, p.SplitReduction)
		}
		if p.Run.Frontier == 0 {
			t.Errorf("%s-%d: empty frontier", p.Shape, p.N)
		}
	}
}

// TestExhaustiveWorkMatchesMeasured holds the closed form against what the
// deleted Gosper-scan enumeration measured at its last commit (the
// "exhaustive" rows of core's TestEngineInvariantsPinned there): 255 sets
// and 932 splits on the pinned 8-table chain, 63 and 378 on TPC-H Q5, and
// per IRA iteration 15 and 32 on TPC-H Q10 (45 and 96 over its three).
func TestExhaustiveWorkMatchesMeasured(t *testing.T) {
	cat := catalog.TPCH(1)
	_, chain8 := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 8, Seed: 7})
	for _, tc := range []struct {
		name         string
		sets, splits int
		got          func() (int, int)
	}{
		{"chain-8", 255, 932, func() (int, int) { return ExhaustiveWork(chain8) }},
		{"tpch-q5", 63, 378, func() (int, int) { return ExhaustiveWork(workload.MustQuery(5, cat)) }},
		{"tpch-q10", 15, 32, func() (int, int) { return ExhaustiveWork(workload.MustQuery(10, cat)) }},
	} {
		if sets, splits := tc.got(); sets != tc.sets || splits != tc.splits {
			t.Errorf("%s: exhaustive work %d sets / %d splits, measured %d / %d", tc.name, sets, splits, tc.sets, tc.splits)
		}
	}
}

func TestTopologyRenderAndJSON(t *testing.T) {
	pts, err := TopologyScaling(smallTopologySpec())
	if err != nil {
		t.Fatal(err)
	}
	text := RenderTopology(pts)
	for _, want := range []string{"chain", "cycle", "clique", "reduction", "scan splits"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered table missing %q:\n%s", want, text)
		}
	}
	file, err := benchJSON("topology", "enumeration-topology-scaling", pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := file.Data
	var payload struct {
		Benchmark string          `json:"benchmark"`
		Points    []TopologyPoint `json:"points"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("BENCH_topology.json payload does not round-trip: %v", err)
	}
	if payload.Benchmark != "enumeration-topology-scaling" || len(payload.Points) != len(pts) {
		t.Errorf("payload = %q with %d points", payload.Benchmark, len(payload.Points))
	}
}

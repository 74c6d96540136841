package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"moqo/internal/synthetic"
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
		if p.Exhaustive.Considered != p.Graph.Considered {
			t.Errorf("%s-%d: candidate counts differ: %d vs %d",
				p.Shape, p.N, p.Exhaustive.Considered, p.Graph.Considered)
		}
		if p.Graph.EnumSplits > p.Exhaustive.EnumSplits {
			t.Errorf("%s-%d: graph arm scanned more splits", p.Shape, p.N)
		}
		if p.Shape != "clique" && p.SplitReduction <= 1 {
			t.Errorf("%s-%d: split reduction %.2f, want > 1", p.Shape, p.N, p.SplitReduction)
		}
		if p.Graph.Frontier == 0 {
			t.Errorf("%s-%d: empty frontier", p.Shape, p.N)
		}
	}
}

func TestTopologyRenderAndJSON(t *testing.T) {
	pts, err := TopologyScaling(smallTopologySpec())
	if err != nil {
		t.Fatal(err)
	}
	text := RenderTopology(pts)
	for _, want := range []string{"chain", "cycle", "clique", "reduction", "speedup"} {
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

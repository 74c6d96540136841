package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestArms runs every arm of the table at the scaled-down configuration:
// names are unique, every arm renders text, and every JSON file decodes
// into the one envelope under the arm's own BENCH_<arm>.json name.
func TestArms(t *testing.T) {
	cfg := quickConfig()
	cfg.Topology = smallTopologySpec()
	cfg.Tenant = TenantSpec{LightRequests: 8, FloodClients: 2, FloodTables: 6, LightTables: 7}
	cfg.Chaos = ChaosSpec{Requests: 12, Tables: 5, Shapes: 4, DeadDelay: time.Millisecond}
	seen := map[string]bool{}
	for _, a := range Arms {
		if seen[a.Name] {
			t.Errorf("arm name %q registered twice", a.Name)
		}
		seen[a.Name] = true
		t.Run(a.Name, func(t *testing.T) {
			rep, err := a.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Title == "" || strings.TrimSpace(rep.Text) == "" {
				t.Errorf("empty title or text: %q / %q", a.Title, rep.Text)
			}
			for _, f := range rep.Files {
				if f.Name != filepath.Base(f.Name) || len(f.Data) == 0 {
					t.Errorf("file %q: not a bare name, or empty", f.Name)
				}
				if !strings.HasSuffix(f.Name, ".json") {
					continue
				}
				var env envelope
				dec := json.NewDecoder(bytes.NewReader(f.Data))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&env); err != nil {
					t.Fatalf("%s is not the shared envelope: %v", f.Name, err)
				}
				if pts, _ := env.Points.([]any); f.Name != "BENCH_"+a.Name+".json" ||
					env.Benchmark == "" || env.NumCPU < 1 || len(pts) == 0 {
					t.Errorf("%s: benchmark %q, num_cpu %d, %d points", f.Name, env.Benchmark, env.NumCPU, len(pts))
				}
			}
		})
	}
}

// TestDocsNameRegisteredArms: every `-fig <name>` a document or the CI
// workflow tells a reader to run is an arm of the table.
func TestDocsNameRegisteredArms(t *testing.T) {
	valid := map[string]bool{"all": true}
	for _, a := range Arms {
		valid[a.Name] = true
	}
	fig := regexp.MustCompile(`-fig[ =](\w+)`)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fig.FindAllSubmatch(raw, -1) {
			if name := string(m[1]); !valid[name] {
				t.Errorf("%s says -fig %s, which is not a registered arm", doc, name)
			}
		}
	}
}

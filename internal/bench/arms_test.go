package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestArms runs every arm of the table at the scaled-down configuration:
// names are unique, every arm renders text, and every file it writes has a
// bare, non-empty name.
func TestArms(t *testing.T) {
	cfg := quickConfig()
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

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTableApplies holds the committed table to the tree it mutates: every
// mutant has a name of its own, targets some tests, and finds its text
// exactly once. A product edit that moves a mutant's text fails here, before
// the slower run.
func TestTableApplies(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range mutants {
		if seen[m.name] {
			t.Errorf("mutant %s twice in the table", m.name)
		}
		seen[m.name] = true
		if len(m.pkgs) == 0 || m.run == "" || m.text == m.repl {
			t.Errorf("%s: no tests to fail, or no change", m.name)
		}
		src, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(m.file)))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.text); n != 1 {
			t.Errorf("%s: text occurs %d times in %s, want once", m.name, n, m.file)
		}
	}
}

// TestRunnerRejects runs the runner on a toy module: a mutant its test kills
// passes, and each way a mutant can fail to prove anything is reported.
func TestRunnerRejects(t *testing.T) {
	root := t.TempDir()
	for name, text := range map[string]string{
		"go.mod": "module toy\n\ngo 1.24\n",
		"toy.go": "package toy\n\nfunc Add(a, b int) int { return a + b }\n\nfunc Twice(a int) int { return a + a }\n",
		"toy_test.go": `package toy

import "testing"

func TestAdd(t *testing.T) {
	if Add(2, 3) != 5 {
		t.Fatal("Add(2, 3) != 5")
	}
}
`,
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	toy := func(text, repl, run string) mutant {
		return mutant{name: "toy", file: "toy.go", text: text, repl: repl, pkgs: []string{"."}, run: run}
	}
	for _, tc := range []struct {
		what string
		m    mutant
		want string // in the report; "" for a killed mutant
	}{
		{"killed", toy("a + b", "a - b", "TestAdd"), ""},
		{"text missing", toy("a * b", "a - b", "TestAdd"), "occurs 0 times"},
		{"text twice", toy("return a", "return -a", "TestAdd"), "occurs 2 times"},
		{"does not vet", toy("a + b", `a + "b"`, "TestAdd"), "go vet"},
		{"survives", toy("a + a", "2 * a", "TestAdd"), "survived"},
		{"no test runs", toy("a + b", "a - b", "TestNothing"), "survived"},
	} {
		t.Run(tc.what, func(t *testing.T) {
			var report strings.Builder
			err := run(&report, root, []mutant{tc.m})
			if (err == nil) != (tc.want == "") || !strings.Contains(report.String(), tc.want) {
				t.Errorf("err %v, report %q, want %q", err, report.String(), tc.want)
			}
		})
	}
}

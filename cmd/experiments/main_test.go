package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: an unknown arm is exit status 2 with the valid arms on
// stderr (it used to print nothing and exit 0), and so is a -tables entry
// that is not a number.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if got := run([]string{"-fig", "bogus"}, &out, &errb); got != 2 {
		t.Errorf("-fig bogus: exit %d, want 2", got)
	}
	for _, want := range []string{`"bogus"`, "all", "9", "topology", "chaos"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("-fig bogus: stderr %q does not name %s", errb.String(), want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("-fig bogus printed a report: %q", out.String())
	}
	if got := run([]string{"-fig", "topology", "-tables", "8,x"}, &out, &errb); got != 2 {
		t.Errorf("-tables 8,x: exit %d, want 2", got)
	}
}

// TestFilesOnlyUnderOut: without -out an arm prints its table and leaves
// the working directory alone; with it, the same arm writes its files
// there and says so.
func TestFilesOnlyUnderOut(t *testing.T) {
	cwd := t.TempDir()
	t.Chdir(cwd)
	args := []string{"-fig", "5", "-queries", "3", "-cases", "1", "-sf", "0.05", "-timeout", "500ms"}
	var out, errb bytes.Buffer
	if got := run(args, &out, &errb); got != 0 {
		t.Fatalf("exit %d: %s", got, errb.String())
	}
	if !strings.Contains(out.String(), "=== Figure 5") || !strings.Contains(out.String(), "EXA") {
		t.Errorf("no Figure 5 table in:\n%s", out.String())
	}
	if left, _ := os.ReadDir(cwd); len(left) != 0 || strings.Contains(out.String(), "wrote") {
		t.Errorf("without -out the run left %d entries behind:\n%s", len(left), out.String())
	}

	dir := filepath.Join(cwd, "nested", "out")
	out.Reset()
	if got := run(append(args, "-out", dir), &out, &errb); got != 0 {
		t.Fatalf("exit %d: %s", got, errb.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig5.csv"))
	if err != nil || !strings.HasPrefix(string(csv), "query,tables,objs,algorithm,") {
		t.Errorf("fig5.csv: %v, %q", err, csv)
	}
	if !strings.Contains(out.String(), "wrote "+filepath.Join(dir, "fig5.csv")) {
		t.Errorf("report does not name the written file:\n%s", out.String())
	}
}

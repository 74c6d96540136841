// Command mutate proves that moqo's tests have teeth: it applies each
// committed mutant (mutants.go) to an unmodified checkout through the go
// command's -overlay flag, and requires the tests that target the mutant to
// fail. The product carries no trace of the mutants: no build tag, no seam.
//
//	go -C tools/mutate run .
//
// For each mutant the runner requires its text to occur exactly once in its
// file, writes the mutated file to a temporary directory, and runs go vet in
// the repository root (which must pass, so a mutant that no longer compiles
// is not counted as killed) and then go test -count=1 -run with the mutant's
// pattern (which must fail). It exits non-zero if any mutant fails one of
// these checks.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// mutant is one deliberate break of the product: the exact text in file that
// becomes repl, and the tests (run, in the packages pkgs) that must fail.
type mutant struct {
	name string
	file string // slash path relative to the module root
	text string // must occur exactly once in file
	repl string
	pkgs []string // package patterns relative to the module root
	run  string   // go test -run pattern
}

func main() {
	if err := run(os.Stdout, "../..", mutants); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

// run checks every mutant against the module at root, reporting each on w,
// and returns an error naming those that were not killed.
func run(w io.Writer, root string, ms []mutant) error {
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	var failed []string
	for _, m := range ms {
		start := time.Now()
		if err := check(root, m); err != nil {
			fmt.Fprintf(w, "FAIL %s: %v\n", m.name, err)
			failed = append(failed, m.name)
			continue
		}
		fmt.Fprintf(w, "ok   %s killed by -run '%s' %s (%.1fs)\n",
			m.name, m.run, strings.Join(m.pkgs, " "), time.Since(start).Seconds())
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d mutants not killed: %s", len(failed), len(ms), strings.Join(failed, ", "))
	}
	return nil
}

// check applies m to the module at root (an absolute path) through an
// overlay and returns nil only if the mutated tree vets and m's tests fail.
func check(root string, m mutant) error {
	file := filepath.Join(root, filepath.FromSlash(m.file))
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if n := strings.Count(string(src), m.text); n != 1 {
		return fmt.Errorf("text %q occurs %d times in %s, want once", m.text, n, m.file)
	}
	dir, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mutated := filepath.Join(dir, filepath.Base(file))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.text, m.repl, 1)), 0o644); err != nil {
		return err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {file: mutated}})
	if err != nil {
		return err
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return err
	}

	vetPkgs := slices.Clone(m.pkgs)
	if own := "./" + path.Dir(m.file); !slices.Contains(vetPkgs, own) {
		vetPkgs = append([]string{own}, vetPkgs...)
	}
	if out, err := goCmd(root, append([]string{"vet", "-overlay", overlayFile}, vetPkgs...)...); err != nil {
		return fmt.Errorf("go vet %s: %v\n%s", strings.Join(vetPkgs, " "), err, out)
	}
	out, err := goCmd(root, append([]string{"test", "-count=1", "-overlay", overlayFile, "-run", m.run}, m.pkgs...)...)
	if err == nil {
		return fmt.Errorf("survived go test -run '%s' %s", m.run, strings.Join(m.pkgs, " "))
	}
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) {
		return fmt.Errorf("go test: %v\n%s", err, out)
	}
	return nil
}

// goCmd runs the go command in dir and returns its combined output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

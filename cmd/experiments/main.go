// Command experiments regenerates the evaluation of the paper: every
// figure of "Approximation Schemes for Many-Objective Query Optimization"
// (Trummer & Koch, SIGMOD 2014) has a corresponding section in the output,
// next to the measured cover factor of its α guarantee. How fast the
// optimizer or the service is, is measured by the scoreboard in benchmark/
// instead.
//
// Usage:
//
//	experiments [-fig all|<arm>] [-timeout 2s] [-cases 3] [-sf 1] [-seed 1]
//	            [-queries 1,12,3] [-workers N] [-out dir]
//
// -fig takes one arm of bench.Arms; run with -h for the list. The defaults
// are scaled down from the paper's setup (two-hour timeout, 20 test cases
// per configuration) so the full run finishes in minutes; raise -timeout
// and -cases to approach the original scale. Files (CSV, SVG) are
// written only with -out, next to the textual report.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"moqo/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it returns the exit status (0 ok, 1 an
// arm or a write failed, 2 bad usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "experiment to run: all, or one of "+armNames())
		timeout = fs.Duration("timeout", 2*time.Second, "optimizer timeout per run (paper: 2h)")
		cases   = fs.Int("cases", 3, "test cases per configuration (paper: 20)")
		sf      = fs.Float64("sf", 1, "TPC-H scale factor")
		seed    = fs.Int64("seed", 1, "workload random seed")
		queries = fs.String("queries", "", "comma-separated TPC-H query numbers (default: all 22)")
		outDir  = fs.String("out", "", "directory for CSV/SVG output (default: write no files)")
		workers = fs.Int("workers", 1, "optimizer worker goroutines per run (default 1 keeps the figure experiments paper-faithful sequential)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(status int, format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return status
	}

	cfg := bench.DefaultConfig()
	cfg.Timeout = *timeout
	cfg.CasesPerConfig = *cases
	cfg.ScaleFactor = *sf
	cfg.Seed = *seed
	cfg.EngineWorkers = *workers
	var err error
	if cfg.Queries, err = intList(*queries); err != nil {
		return fail(2, "bad -queries entry: %v", err)
	}
	var arms []bench.Arm
	for _, a := range bench.Arms {
		if a.Name == *fig || (*fig == "all" && a.All) {
			arms = append(arms, a)
		}
	}
	if len(arms) == 0 {
		return fail(2, "unknown -fig %q; valid: all, %s", *fig, armNames())
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(1, "create output dir: %v", err)
		}
	}

	for _, a := range arms {
		fmt.Fprintf(stdout, "\n=== %s ===\n\n", a.Title)
		rep, err := a.Run(cfg)
		if err != nil {
			return fail(1, "-fig %s: %v", a.Name, err)
		}
		fmt.Fprint(stdout, rep.Text)
		if *outDir == "" {
			continue
		}
		for _, f := range rep.Files {
			path := filepath.Join(*outDir, f.Name)
			if err := os.WriteFile(path, f.Data, 0o644); err != nil {
				return fail(1, "write %s: %v", path, err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	return 0
}

// armNames lists the -fig values of bench.Arms, for the flag help and the
// unknown-arm error.
func armNames() string {
	names := make([]string, len(bench.Arms))
	for i, a := range bench.Arms {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// intList parses a comma-separated flag value, dropping blanks.
func intList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

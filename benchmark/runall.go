package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// scoreboard is out/result-<seed>.json: every workload's metrics from one
// `run`, the file compare reads.
type scoreboard struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadScores `json:"workloads"`
}

type workloadScores struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd comes from the untraced pass; PerLayer, when -trace was
	// given, from the traced one.
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`
	// SliceSpread is the interquartile spread of a metric's slices within
	// the run, as a share of their median.
	SliceSpread map[string]float64 `json:"slice_spread"`
}

// runAll runs every workload in a child process of its own, so none
// inherits another's heap, caches or peak RSS, and collects their results.
func runAll(args []string) error {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of each measured phase")
	fs.BoolVar(&cfg.trace, "trace", false, "add the traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	board := scoreboard{Workloads: map[string]workloadScores{}}
	failed := 0
	for _, name := range workloadNames {
		scores := workloadScores{}
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !cfg.trace {
				break
			}
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(cfg.seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", name, trace, err)
			}
			data, err := os.ReadFile(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, trace)))
			if err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return err
			}
			failed += res.Failed
			if trace == 0 {
				board.Env = res.Env
				scores.Attempted, scores.Failed = res.Attempted, res.Failed
				scores.EndToEnd, scores.SliceSpread = res.Metrics, res.Spreads
			} else {
				scores.PerLayer = res.Metrics
			}
		}
		board.Workloads[name] = scores
	}
	data, err := json.MarshalIndent(board, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%d.json", cfg.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

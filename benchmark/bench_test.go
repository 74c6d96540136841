package main

import (
	"io"
	"regexp"
	"runtime"
	"slices"
	"testing"
)

// toyConfig is every workload at a scale that finishes in about a second:
// two slices of 100 ms, one set-up, three restart cycles, shrunken pools
// and the small cold instances only.
func toyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace, cfg.toy = workload, trace, true
	cfg.seconds, cfg.slices = 0.2, 2
	cfg.setupReps, cfg.setupBudget, cfg.restartCycles, cfg.restartBudget = 1, 0, 3, 0
	cfg.clients = min(2, runtime.NumCPU())
	cfg.outDir = t.TempDir()
	return cfg
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmittedMetricsMatchBenchmarkJSON runs every workload untraced and
// traced and holds what it emits against BENCHMARK.json: the same workload
// names, exactly the declared end-to-end and per-layer metrics with their
// units, no failed operation, and exact counters that repeat.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames)
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}

	check := func(t *testing.T, res *result, want map[string]string) {
		t.Helper()
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is not a plain identifier", name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("emits %s, which BENCHMARK.json does not declare", name)
			} else if unit != m.Unit || unit == "" {
				t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("BENCHMARK.json declares %s, which the run did not emit", name)
			}
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain, err := runWorkload(toyConfig(t, name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			check(t, plain, endToEnd)
			for metric, m := range plain.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", metric, m.Value)
				}
			}
			first, err := runWorkload(toyConfig(t, name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			check(t, first, perLayer)
			second, err := runWorkload(toyConfig(t, name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, counter := range exactCounters {
				if a, b := first.Metrics[counter].Value, second.Metrics[counter].Value; a != b {
					t.Errorf("exact counter %s differs between two runs of one seed: %v, %v", counter, a, b)
				}
			}
		})
	}
}

// TestCorruptedExpectationFails shows the correctness checks can fail: with
// one expectation falsified — a guarantee optimum on the cold list, a
// sentinel plan on a serving workload, whose check the batch shares — the
// run reports failed operations and is incorrect.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, name := range []string{"cold_w1", "serve_hit"} {
		cfg := toyConfig(t, name, false)
		cfg.corruptSentinel = true
		res, err := runWorkload(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed == 0 || res.Correct {
			t.Errorf("%s: a falsified expectation went unnoticed (%d of %d failed)", name, res.Failed, res.Attempted)
		}
	}
}

// TestRefusesOversubscription: more clients than cores would measure the
// scheduler, not the program.
func TestRefusesOversubscription(t *testing.T) {
	cfg := toyConfig(t, "serve_hit", false)
	cfg.clients = runtime.NumCPU() + 1
	if _, err := runWorkload(cfg, io.Discard); err == nil {
		t.Error("a run with more clients than cores was accepted")
	}
}

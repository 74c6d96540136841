package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Committed expectations: benchmark/expected/seed-N.json holds, for seeds
// 1 to 3 and every workload, the digest of the generated inputs and the
// exact optimum of each guarantee instance, written once by `regen`. A run
// on one of those seeds must reproduce them, so an edit to
// internal/synthetic, internal/workload or the TPC-H statistics cannot
// change the load silently, and a change to both optimizer engines at once
// cannot move the optimum the guarantee is checked against. Other seeds
// have no committed file; their expectations are computed in set-up by the
// same reference code.

const expectedDir = "benchmark/expected"

var pinnedSeeds = []int64{1, 2, 3}

func expectedPath(seed int64) string {
	return filepath.Join(expectedDir, fmt.Sprintf("seed-%d.json", seed))
}

// checkPins compares what set-up generated with the committed file for the
// seed, if there is one. Toy-scale inputs are never pinned.
func checkPins(cfg config, got map[string]string) error {
	if cfg.toy {
		return nil
	}
	data, err := os.ReadFile(expectedPath(cfg.seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var committed map[string]map[string]string
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", expectedPath(cfg.seed), err)
	}
	want, ok := committed[cfg.workload]
	if !ok {
		return fmt.Errorf("inputs changed: %s has no entry for %s; run regen", expectedPath(cfg.seed), cfg.workload)
	}
	for name, v := range want {
		if got[name] != v {
			return fmt.Errorf("inputs changed: %s %q is %s, committed %s (if intended, run regen and say why)", cfg.workload, name, got[name], v)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("inputs changed: %s has %d pins, committed %d", cfg.workload, len(got), len(want))
	}
	return nil
}

// regen recomputes and writes the committed expectations.
func regen() error {
	if err := os.MkdirAll(expectedDir, 0o755); err != nil {
		return err
	}
	for _, seed := range pinnedSeeds {
		all := map[string]map[string]string{}
		for _, name := range workloadNames {
			cfg := defaultConfig()
			cfg.workload, cfg.seed = name, seed
			if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
				return err
			}
			w, err := newWorkload(cfg)
			if err != nil {
				return err
			}
			err = w.setUp()
			pins := w.pins()
			w.tearDown()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			all[name] = pins
		}
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(expectedPath(seed), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", expectedPath(seed))
	}
	return nil
}

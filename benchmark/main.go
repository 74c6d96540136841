// Command benchmark is the repository's one scoreboard: six workloads that
// walk the optimizer and the moqod request path end to end, with per-layer
// probes taken from outside the program. See README.md in this directory.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    runs one workload and prints, as the last line of standard output,
//	    {"correct":…,"attempted":…,"failed":…,"metrics":{…}} — end-to-end
//	    metrics with --trace 0, per-layer metrics with --trace 1.
//	benchmark run [-seed n] [-seconds s] [-trace]
//	    runs all six, each in its own process, and writes out/result-<seed>.json.
//	benchmark compare A.json B.json
//	    holds B against A with the bounds of BENCHMARK.json.
//	benchmark regen
//	    rewrites the committed expectations under expected/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runAll(args[1:])
		case "compare":
			return compare(args[1:])
		case "regen":
			return regen()
		}
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "one of "+fmt.Sprint(workloadNames))
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.workload == "" || fs.NArg() > 0 {
		return fmt.Errorf("usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> | run | compare | regen")
	}
	cfg.trace = *trace != 0
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// Command moqo optimizes a single TPC-H query under user-specified
// objectives, weights and bounds, printing the selected plan, its cost
// vector, and the (approximate) Pareto frontier the optimizer produced as
// a byproduct.
//
// Usage:
//
//	moqo -query 3 [-algorithm rta] [-alpha 1.5] [-sf 1] [-timeout 10s]
//	     [-objectives total_time,energy,tuple_loss]
//	     [-weights total_time=1,energy=0.2] [-bounds tuple_loss=0]
//	     [-workers N] [-frontier]
//
// Examples:
//
//	# near-optimal time/energy tradeoff for TPC-H Q5
//	moqo -query 5 -objectives total_time,energy -weights total_time=1,energy=100
//
//	# bounded optimization: fastest plan losing at most 5% of tuples
//	moqo -query 3 -algorithm ira -objectives total_time,tuple_loss \
//	     -weights total_time=1 -bounds tuple_loss=0.05
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"moqo"
)

func main() {
	var (
		queryNum   = flag.Int("query", 3, "TPC-H query number (1-22)")
		algorithm  = flag.String("algorithm", "", "exa, rta, ira, selinger, weightedsum (default: rta, or ira when bounds are set)")
		alpha      = flag.Float64("alpha", 1.2, "approximation precision for rta/ira (>= 1)")
		sf         = flag.Float64("sf", 1, "TPC-H scale factor")
		timeout    = flag.Duration("timeout", 30*time.Second, "optimization timeout")
		objectives = flag.String("objectives", "total_time,buffer_footprint,tuple_loss", "comma-separated objectives")
		weights    = flag.String("weights", "total_time=1", "comma-separated objective=weight pairs")
		bounds     = flag.String("bounds", "", "comma-separated objective=bound pairs")
		workers    = flag.Int("workers", runtime.NumCPU(), "optimizer worker goroutines (1 = sequential)")
		frontier   = flag.Bool("frontier", false, "print the full Pareto frontier")
		explain    = flag.Bool("explain", false, "print per-node cardinalities and costs")
		asJSON     = flag.Bool("json", false, "print the plan as JSON and exit")
	)
	flag.Parse()

	cat := moqo.TPCHCatalog(*sf)
	q, err := moqo.TPCHQuery(*queryNum, cat)
	if err != nil {
		fatalf("%v", err)
	}

	req := moqo.Request{
		Query:   q,
		Alpha:   *alpha,
		Timeout: *timeout,
		Workers: *workers,
	}
	for _, name := range splitList(*objectives) {
		o, err := parseObjective(name)
		if err != nil {
			fatalf("%v", err)
		}
		req.Objectives = append(req.Objectives, o)
	}
	req.Weights, err = parsePairs(*weights)
	if err != nil {
		fatalf("-weights: %v", err)
	}
	req.Bounds, err = parsePairs(*bounds)
	if err != nil {
		fatalf("-bounds: %v", err)
	}
	if *algorithm != "" {
		alg, err := moqo.ParseAlgorithm(*algorithm)
		if err != nil {
			fatalf("%v", err)
		}
		req.Algorithm = alg
	}

	res, err := moqo.Optimize(req)
	if err != nil {
		fatalf("%v", err)
	}

	if *asJSON {
		out, err := planJSON(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(out))
		return
	}

	fmt.Printf("query:     tpch-q%d (%d relations, scale factor %g)\n", *queryNum, q.NumRelations(), *sf)
	fmt.Printf("optimizer: %s in %s (%d plans considered, %d stored",
		algName(req), res.Stats.Duration.Round(time.Millisecond), res.Stats.Considered, res.Stats.Stored)
	if res.Stats.Iterations > 1 {
		fmt.Printf(", %d iterations", res.Stats.Iterations)
	}
	if res.Stats.TimedOut {
		fmt.Print(", TIMED OUT — result degraded")
	}
	fmt.Println(")")
	fmt.Println("\nselected plan:")
	if *explain {
		fmt.Print(indent(res.Explain()))
	} else {
		fmt.Print(indent(res.PlanText()))
	}
	fmt.Println("cost vector:")
	for _, o := range res.Objectives() {
		fmt.Printf("  %-18s %12.4g %s\n", o.String(), res.Cost(o), o.Unit())
	}
	if *frontier {
		fmt.Printf("\nPareto frontier (%d plans):\n", len(res.Frontier))
		objs := moqo.NewObjectiveSet(req.Objectives...)
		for _, v := range res.FrontierVectors() {
			fmt.Printf("  %s\n", v.FormatOn(objs))
		}
	}
}

// planJSON renders the selected plan for -json: the library's compact JSON
// indented by two spaces per level, one field per line.
func planJSON(res *moqo.Result) ([]byte, error) {
	raw, err := res.PlanJSON()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := json.Indent(&out, raw, "", "  "); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func algName(req moqo.Request) string {
	if req.Algorithm != moqo.AlgoAuto {
		return req.Algorithm.String()
	}
	if len(req.Bounds) > 0 {
		return "ira (default for bounded requests)"
	}
	return "rta (default)"
}

func parseObjective(name string) (moqo.Objective, error) {
	for _, o := range moqo.AllObjectives() {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown objective %q", name)
}

func parsePairs(s string) (map[moqo.Objective]float64, error) {
	out := map[moqo.Objective]float64{}
	for _, pair := range splitList(s) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad pair %q (want objective=value)", pair)
		}
		o, err := parseObjective(strings.TrimSpace(k))
		if err != nil {
			return nil, err
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", pair, err)
		}
		out[o] = x
	}
	return out, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "moqo: "+format+"\n", args...)
	os.Exit(1)
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare holds scoreboard B against scoreboard A: one row per workload and
// end-to-end metric with the metric's own direction and bound. A row is
// "regressed" when B is worse than A by more than the bound, "unresolved"
// when either run's own slices spread wider than the bound (the run cannot
// tell a change that small from noise), else "ok". Counters that must
// repeat exactly are compared as counts. Any regression or differing exact
// counter is an error.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: benchmark compare A.json B.json")
	}
	var spec benchmarkSpec
	if err := readJSON("BENCHMARK.json", &spec); err != nil {
		return err
	}
	var a, b scoreboard
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tverdict")
	bad := 0
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		for _, m := range spec.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\tmissing\n", wl.Name, m.Name)
				bad++
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case wa.SliceSpread[m.Name] > m.Bound || wb.SliceSpread[m.Name] > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, va.Value, vb.Value, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, name := range exactCounters {
			if va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value; va != vb {
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\texact\tdiffers\n", wl.Name, name, va, vb)
				bad++
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !slices.Equal(sortedKeys(a.Workloads), sortedKeys(b.Workloads)) {
		return fmt.Errorf("the two results hold different workloads")
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ or are missing", bad)
	}
	return nil
}

// Multi-user server scenario (paper Scenario 2): a powerful server
// processes queries of many users concurrently. Every system resource a
// query plan occupies — buffer space, disk space, IO bandwidth, cores — is
// unavailable to other queries, so minimizing each resource is an
// objective of its own, conflicting with the query's own execution time.
// An administrator sets the weights and resource caps; the optimizer finds
// the best compromise per query.
//
// The example compares the resource footprint of the time-optimal plan
// (what a classical single-objective optimizer would pick) with the
// multi-objective compromise, showing how much buffer/IO/core pressure the
// administrator's policy removes for a modest slowdown.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"moqo"
)

func main() {
	cat := moqo.TPCHCatalog(1)

	resourceObjs := []moqo.Objective{
		moqo.TotalTime, moqo.IOLoad, moqo.Cores,
		moqo.DiskFootprint, moqo.BufferFootprint,
	}
	// Administrator policy: time matters, but so does staying light on
	// shared resources; at most 2 cores and 100 MB of buffer per query.
	adminWeights := map[moqo.Objective]float64{
		moqo.TotalTime:       1,
		moqo.IOLoad:          0.02,
		moqo.Cores:           500,
		moqo.DiskFootprint:   1e-6,
		moqo.BufferFootprint: 1e-5,
	}
	adminBounds := map[moqo.Objective]float64{
		moqo.Cores:           2,
		moqo.BufferFootprint: 100 << 20,
	}

	for _, qn := range []int{3, 10, 5} {
		q, err := moqo.TPCHQuery(qn, cat)
		if err != nil {
			log.Fatal(err)
		}

		// Baseline: classical single-objective optimization.
		fastest, err := moqo.Optimize(moqo.Request{
			Query:      q,
			Algorithm:  moqo.AlgoSelinger,
			Objectives: []moqo.Objective{moqo.TotalTime},
		})
		if err != nil {
			log.Fatal(err)
		}

		// Multi-objective compromise under the administrator's policy.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		shared, err := moqo.OptimizeContext(ctx, moqo.Request{
			Query:      q,
			Algorithm:  moqo.AlgoIRA,
			Alpha:      1.2,
			Objectives: resourceObjs,
			Weights:    adminWeights,
			Bounds:     adminBounds,
		})
		cancel()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("== TPC-H Q%d ==\n", qn)
		fmt.Printf("%-22s %12s %12s\n", "", "time-optimal", "compromise")
		row := func(label string, o moqo.Objective, unit string) {
			// The Selinger baseline only estimated time; recompute its
			// resource costs from the plan's cost vector, which carries
			// all nine objectives regardless of the active set.
			fmt.Printf("%-22s %12.4g %12.4g %s\n", label,
				fastest.Plan.Cost[o], shared.Plan.Cost[o], unit)
		}
		row("total time", moqo.TotalTime, "ms")
		row("IO load", moqo.IOLoad, "pages")
		row("cores", moqo.Cores, "")
		row("buffer footprint", moqo.BufferFootprint, "bytes")
		row("disk footprint", moqo.DiskFootprint, "bytes")
		fmt.Printf("\ncompromise plan (%d IRA iterations):\n%s\n",
			shared.Stats.Iterations, shared.PlanText())
	}
}

// Cloud provider scenario (paper Scenario 1): users are billed for
// accumulated processing time across Cloud nodes, can trade result
// completeness for money via sampling, and set hard limits in their
// profiles. Upon each query the provider must find a plan that meets all
// user constraints while minimizing the weighted sum of execution time,
// monetary cost and result-quality loss.
//
// Monetary cost is CPU-load-based here (billed compute), so it maps onto
// the CPULoad objective; result quality maps onto TupleLoss. The
// bounded-weighted problem is solved with the IRA approximation scheme —
// the algorithm the paper designed exactly for this setting.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"moqo"
)

// userProfile is the per-user preference record of Scenario 1.
type userProfile struct {
	name string
	// Relative importance of response time, money, and result quality.
	timeWeight, moneyWeight, qualityWeight float64
	// Hard limits: deadline (ms) and maximal acceptable tuple loss.
	deadlineMs float64
	maxLoss    float64
}

func main() {
	cat := moqo.TPCHCatalog(1)

	profiles := []userProfile{
		{
			name:       "analyst (exact results, generous deadline)",
			timeWeight: 1, moneyWeight: 5, qualityWeight: 0,
			deadlineMs: 600_000, maxLoss: 0, // no sampling allowed
		},
		{
			name:       "dashboard (fast approximate answers)",
			timeWeight: 10, moneyWeight: 1, qualityWeight: 0,
			deadlineMs: 5_000, maxLoss: 0.99, // a sample is fine
		},
		{
			name:       "batch report (cheap, quality floor)",
			timeWeight: 0.1, moneyWeight: 20, qualityWeight: 100_000,
			deadlineMs: 3_600_000, maxLoss: 0.05, // lose at most 5%
		},
	}

	for _, qn := range []int{3, 5, 10} {
		q, err := moqo.TPCHQuery(qn, cat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== TPC-H Q%d ==\n", qn)
		for _, u := range profiles {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := moqo.OptimizeContext(ctx, moqo.Request{
				Query:      q,
				Algorithm:  moqo.AlgoIRA,
				Alpha:      1.25,
				Objectives: []moqo.Objective{moqo.TotalTime, moqo.CPULoad, moqo.TupleLoss},
				Weights: map[moqo.Objective]float64{
					moqo.TotalTime: u.timeWeight,
					moqo.CPULoad:   u.moneyWeight,
					moqo.TupleLoss: u.qualityWeight,
				},
				Bounds: map[moqo.Objective]float64{
					moqo.TotalTime: u.deadlineMs,
					moqo.TupleLoss: u.maxLoss,
				},
			})
			cancel()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%s\n", u.name)
			fmt.Printf("  optimized in %s (%d iterations)\n",
				res.Stats.Duration.Round(time.Millisecond), res.Stats.Iterations)
			fmt.Printf("  est. time %.0f ms | billed compute %.2g units | tuple loss %.2g\n",
				res.Cost(moqo.TotalTime), res.Cost(moqo.CPULoad), res.Cost(moqo.TupleLoss))
			fmt.Printf("  deadline respected: %v | quality respected: %v\n",
				res.Cost(moqo.TotalTime) <= u.deadlineMs, res.Cost(moqo.TupleLoss) <= u.maxLoss)
			fmt.Print(indent(res.PlanText()))
		}
		fmt.Println()
	}
}

func indent(s string) string {
	out := ""
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out += "    " + s[:i] + "\n"
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

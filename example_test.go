package moqo_test

import (
	"context"
	"fmt"
	"time"

	"moqo"
)

// Example demonstrates weighted multi-objective optimization with the RTA
// approximation scheme: a guaranteed near-optimal compromise between
// execution time and buffer footprint for TPC-H query 12.
func Example() {
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(12, cat)
	if err != nil {
		panic(err)
	}
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
		Weights: map[moqo.Objective]float64{
			moqo.TotalTime:       1,
			moqo.BufferFootprint: 1.0 / 1024,
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan operators: %d\n", res.Plan.NumOperators())
	fmt.Printf("frontier non-empty: %v\n", len(res.Frontier) > 0)
	fmt.Printf("guarantee: within factor 1.5 of the weighted optimum\n")
	// Output:
	// plan operators: 3
	// frontier non-empty: true
	// guarantee: within factor 1.5 of the weighted optimum
}

// ExampleOptimize_bounded demonstrates bounded-weighted optimization with
// the IRA: the cheapest plan (by CPU) that keeps tuple loss at zero.
// ExampleOptimizeSnapshot demonstrates parametric frontier reuse — the
// paper's Figure 3 scenario, where a user iteratively re-weights the
// same query: the first optimization extracts a weight-independent
// FrontierSnapshot, and every re-weight is answered by a SelectBest scan
// over it (Reoptimize), bit-for-bit equal to a cold optimization at the
// new weights but orders of magnitude faster.
func ExampleOptimizeSnapshot() {
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(5, cat)
	if err != nil {
		panic(err)
	}
	base := moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.1},
	}
	_, snap, err := moqo.OptimizeSnapshot(base)
	if err != nil {
		panic(err)
	}

	// The user shifts priorities toward energy: same frontier, new scan.
	reweighted := base
	reweighted.Weights = map[moqo.Objective]float64{moqo.TotalTime: 0.2, moqo.Energy: 5}
	warm, _, err := moqo.Reoptimize(reweighted, snap)
	if err != nil {
		panic(err)
	}
	cold, err := moqo.Optimize(reweighted)
	if err != nil {
		panic(err)
	}
	fmt.Printf("reused frontier: %v\n", warm.Stats.ReusedFrontier)
	fmt.Printf("identical to cold run: %v\n", warm.PlanText() == cold.PlanText() &&
		warm.Cost(moqo.Energy) == cold.Cost(moqo.Energy))
	// Output:
	// reused frontier: true
	// identical to cold run: true
}

func ExampleOptimize_bounded() {
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(14, cat)
	if err != nil {
		panic(err)
	}
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoIRA,
		Alpha:      1.25,
		Objectives: []moqo.Objective{moqo.CPULoad, moqo.TupleLoss},
		Weights:    map[moqo.Objective]float64{moqo.CPULoad: 1},
		Bounds:     map[moqo.Objective]float64{moqo.TupleLoss: 0},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("tuple loss: %v\n", res.Cost(moqo.TupleLoss))
	fmt.Printf("bound respected: %v\n", res.Cost(moqo.TupleLoss) <= 0)
	// Output:
	// tuple loss: 0
	// bound respected: true
}

// ExampleOptimizeContext demonstrates context-aware optimization: the
// context is the only carrier of a deadline, which degrades the run
// gracefully (paper Section 5.1), while a cancellation (a client
// disconnect, an explicit cancel) aborts the dynamic program promptly with
// the context's error.
func ExampleOptimizeContext() {
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(3, cat)
	if err != nil {
		panic(err)
	}
	req := moqo.Request{
		Query:      q,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.2},
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := moqo.OptimizeContext(ctx, req)
	if err != nil {
		panic(err)
	}
	fmt.Println("algorithm:", res.Algorithm)
	fmt.Println("timed out:", res.Stats.TimedOut)

	gone, disconnect := context.WithCancel(context.Background())
	disconnect() // the client went away before the optimizer started
	_, err = moqo.OptimizeContext(gone, req)
	fmt.Println("after disconnect:", err)
	// Output:
	// algorithm: rta
	// timed out: false
	// after disconnect: context canceled
}

// ExampleOptimize_largeChain optimizes a 20-table chain query — far past
// the practical ceiling of exhaustive subset scanning. The optimizer
// materializes only the connected table sets of the join graph (a chain
// has n(n+1)/2, not 2^n) and tries only predicate-connected csg-cmp
// splits.
func ExampleOptimize_largeChain() {
	const tables = 20
	cat := moqo.NewCatalog()
	q := moqo.NewQuery("chain20", cat)
	for i := 0; i < tables; i++ {
		name := fmt.Sprintf("t%d", i)
		cat.AddTable(name, float64(1000*(i+1)), 64, "pk")
		q.AddRelation(name, name, 1)
	}
	for i := 1; i < tables; i++ {
		q.AddFKJoin(i-1, "fk", i, "pk")
	}

	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Alpha:      4,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("relations: %d\n", q.NumRelations())
	fmt.Printf("plan joins every table: %v\n", res.Plan.Tables == q.AllTables())
	fmt.Printf("plan operators: %d\n", res.Plan.NumOperators())
	fmt.Printf("connected sets materialized: %d\n", res.Stats.EnumSets)
	// Output:
	// relations: 20
	// plan joins every table: true
	// plan operators: 39
	// connected sets materialized: 210
}

// ExampleOptimize_boundedWeightedIRA demonstrates bounded-weighted MOQO
// with a *binding* bound: unconstrained, the fastest plan for TPC-H Q5
// uses ~32 MiB of buffer space; bounding the buffer footprint to 16 MiB
// forces the IRA through several refinement iterations and onto a slower
// plan that respects the bound — the tradeoff of the paper's Figure 1.
func ExampleOptimize_boundedWeightedIRA() {
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(5, cat)
	if err != nil {
		panic(err)
	}
	objectives := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.Energy}
	weights := map[moqo.Objective]float64{moqo.TotalTime: 1}

	unbounded, err := moqo.Optimize(moqo.Request{
		Query: q, Alpha: 1.5, Objectives: objectives, Weights: weights,
	})
	if err != nil {
		panic(err)
	}
	bounded, err := moqo.Optimize(moqo.Request{
		Query: q, Alpha: 1.5, Objectives: objectives, Weights: weights,
		Bounds: map[moqo.Objective]float64{moqo.BufferFootprint: 16 << 20},
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("algorithm:", bounded.Algorithm)
	fmt.Println("refinement iterations > 1:", bounded.Stats.Iterations > 1)
	fmt.Println("bound respected:", bounded.Cost(moqo.BufferFootprint) <= 16<<20)
	fmt.Println("bounded plan is slower:", bounded.Cost(moqo.TotalTime) > unbounded.Cost(moqo.TotalTime))
	// Output:
	// algorithm: ira
	// refinement iterations > 1: true
	// bound respected: true
	// bounded plan is slower: true
}

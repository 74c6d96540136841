package moqo_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"moqo"
)

// batchWorkload builds a mixed overlapping workload over one catalog:
// a chain, an extension of that chain (sharing its prefix subproblems),
// two TPC-H queries, an exact duplicate, a re-weight, and members across
// EXA/RTA/IRA/Selinger. The same request slice is optimized per-member
// (the baseline) and as a batch (the subject) by the differential test.
func batchWorkload(t testing.TB) []moqo.Request {
	t.Helper()
	cat := moqo.TPCHCatalog(0.1)

	chain := moqo.NewQuery("chain3", cat)
	c := chain.AddRelation("customer", "c", 0.2)
	o := chain.AddRelation("orders", "o", 0.5)
	l := chain.AddRelation("lineitem", "l", 0.6)
	chain.AddFKJoin(o, "o_custkey", c, "c_custkey")
	chain.AddFKJoin(l, "l_orderkey", o, "o_orderkey")

	star := moqo.NewQuery("star4", cat)
	c = star.AddRelation("customer", "c", 0.2)
	o = star.AddRelation("orders", "o", 0.5)
	l = star.AddRelation("lineitem", "l", 0.6)
	n := star.AddRelation("nation", "n", 1)
	star.AddFKJoin(o, "o_custkey", c, "c_custkey")
	star.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	star.AddFKJoin(c, "c_nationkey", n, "n_nationkey")

	q3, err := moqo.TPCHQuery(3, cat)
	if err != nil {
		t.Fatal(err)
	}
	q5, err := moqo.TPCHQuery(5, cat)
	if err != nil {
		t.Fatal(err)
	}

	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.Energy}
	w1 := map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.1, moqo.Energy: 0.3}
	w2 := map[moqo.Objective]float64{moqo.TotalTime: 0.3, moqo.BufferFootprint: 1, moqo.Energy: 0.1}

	chainEXA := moqo.Request{Query: chain, Algorithm: moqo.AlgoEXA, Objectives: objs, Weights: w1}
	starEXA := moqo.Request{Query: star, Algorithm: moqo.AlgoEXA, Objectives: objs, Weights: w1}
	starEXAw2 := starEXA
	starEXAw2.Weights = w2

	return []moqo.Request{
		chainEXA, // shares its whole DP with starEXA's prefix
		starEXA,
		chainEXA,  // exact duplicate: one DP
		starEXAw2, // re-weight: answered from starEXA's frontier
		{Query: q3, Algorithm: moqo.AlgoRTA, Alpha: 1.5, Objectives: objs, Weights: w1},
		{Query: q3, Algorithm: moqo.AlgoRTA, Alpha: 1.5, Objectives: objs, Weights: w2},
		{Query: q5, Algorithm: moqo.AlgoIRA, Alpha: 1.5, Objectives: objs, Weights: w1,
			Bounds: map[moqo.Objective]float64{moqo.BufferFootprint: 1e9}},
		{Query: q3, Algorithm: moqo.AlgoSelinger, Objectives: objs},
		// One query object under further frontier keys: with Parallel > 1
		// these run their own dynamic programs while the star and q3
		// members above run theirs, on the same *Query.
		{Query: star, Algorithm: moqo.AlgoRTA, Alpha: 2, Objectives: objs, Weights: w2},
		{Query: star, Algorithm: moqo.AlgoIRA, Alpha: 1.5, Objectives: objs, Weights: w1,
			Bounds: map[moqo.Objective]float64{moqo.BufferFootprint: 1e9}},
		{Query: q3, Algorithm: moqo.AlgoEXA, Objectives: objs[:2],
			Weights: map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.1}},
	}
}

// TestBatchMatchesPerMemberDifferential is the batch acceptance
// differential: over a mixed overlapping workload — chain/star/TPC-H
// shapes, duplicates, re-weights, EXA/RTA/IRA/Selinger — every batch
// member's answer is bit-for-bit the answer of a standalone Optimize
// call, for sequential and parallel fan-out and for Workers 1 and 4
// inside the dynamic programs.
func TestBatchMatchesPerMemberDifferential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, parallel := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d/parallel=%d", workers, parallel), func(t *testing.T) {
				reqs := batchWorkload(t)
				for i := range reqs {
					reqs[i].Workers = workers
				}

				// Baseline: each member alone, no sharing of any kind.
				base := make([]*moqo.Result, len(reqs))
				for i, req := range reqs {
					res, err := moqo.Optimize(req)
					if err != nil {
						t.Fatalf("baseline member %d: %v", i, err)
					}
					base[i] = res
				}

				items := moqo.OptimizeBatchContext(context.Background(), reqs,
					moqo.BatchOptions{Parallel: parallel})
				if len(items) != len(reqs) {
					t.Fatalf("got %d items for %d members", len(items), len(reqs))
				}
				for i, it := range items {
					if it.Err != nil {
						t.Fatalf("batch member %d: %v", i, it.Err)
					}
					assertSameAnswer(t, fmt.Sprintf("member %d", i), it.Result, base[i])
				}
				if !items[2].Reused {
					t.Error("exact-duplicate member not marked reused")
				}
				if !items[3].Reused {
					t.Error("re-weight member not marked reused")
				}
			})
		}
	}
}

// TestBatchSharedMemoKeepsEdgeOrder: the shared memo may hand a member
// only the archive its own run would have built. Query.EstimateRows
// multiplies the selectivities of a set's internal edges in declaration
// order, so a triangle declared a-b, b-c, a-c estimates {a,b,c} in other
// bits than the same triangle declared in reverse — and a key that sorted
// the edges served the second member the first one's archive, costs off
// in the last bit. Here B is A's first three tables with the triangle
// reversed: in the batch it may borrow A's three pairs, not the triangle,
// and must answer what it answers alone.
func TestBatchSharedMemoKeepsEdgeOrder(t *testing.T) {
	cat := moqo.NewCatalog()
	for i, name := range []string{"a", "b", "c", "d"} {
		cat.AddTable(name, float64(1500*(i+3)), 100, "id")
	}
	build := func(name string, tables []string, edges [][2]int, sels []float64) *moqo.Query {
		q := moqo.NewQuery(name, cat)
		for _, tb := range tables {
			q.AddRelation(tb, tb, 1)
		}
		for i, e := range edges {
			q.AddJoin(e[0], e[1], "id", "id", sels[i])
		}
		return q
	}
	a := build("A", []string{"a", "b", "c", "d"}, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}, []float64{0.1, 0.3, 0.7, 0.01})
	b := build("B", []string{"a", "b", "c"}, [][2]int{{0, 2}, {1, 2}, {0, 1}}, []float64{0.7, 0.3, 0.1})
	triangle := b.AllTables() // {a,b,c}: the same local indexes in A
	if ra, rb := a.EstimateRows(triangle), b.EstimateRows(triangle); ra == rb {
		t.Fatalf("rows({a,b,c}) is %v in both declaration orders; the test needs them to differ", ra)
	}

	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint}
	weights := map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.5}
	reqA := moqo.Request{Query: a, Algorithm: moqo.AlgoEXA, Objectives: objs, Weights: weights}
	reqB := moqo.Request{Query: b, Algorithm: moqo.AlgoEXA, Objectives: objs, Weights: weights}
	alone, err := moqo.Optimize(reqB)
	if err != nil {
		t.Fatal(err)
	}
	items := moqo.OptimizeBatch([]moqo.Request{reqA, reqB})
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("member %d: %v", i, it.Err)
		}
	}
	if hits := items[1].Result.Stats.SharedMemoHits; hits != 3 {
		t.Errorf("member B took %d shared hits, want 3 (A's pairs, not its triangle)", hits)
	}
	assertSameAnswer(t, "member B", items[1].Result, alone)
}

// TestBatchDuplicateKeepsMemberAliases: two members that differ only in
// their relation aliases share a cache key, so a dedupe by that key alone
// handed the second member the first one's Result, whose plan names the
// first member's relations. Each member must get the plan it gets alone,
// in its own names; under EXA and RTA the second is still answered from
// the first one's frontier, without a dynamic program of its own.
func TestBatchDuplicateKeepsMemberAliases(t *testing.T) {
	cat := moqo.NewCatalog()
	cat.AddTable("users", 100000, 120, "id")
	cat.AddTable("events", 5000000, 64, "eid")
	named := func(prefix string) *moqo.Query {
		q := moqo.NewQuery("alias", cat)
		q.AddRelation("users", prefix+"1", 0.1)
		q.AddRelation("events", prefix+"2", 1)
		q.AddJoin(0, 1, "id", "user_id", 0.00001)
		return q
	}
	objs := []moqo.Objective{moqo.TotalTime, moqo.Energy}
	weights := map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.5}
	for _, alg := range []moqo.Algorithm{moqo.AlgoEXA, moqo.AlgoRTA, moqo.AlgoIRA} {
		t.Run(alg.String(), func(t *testing.T) {
			prefixes := []string{"x", "y", "x"}
			reqs := make([]moqo.Request, len(prefixes))
			for i, prefix := range prefixes {
				reqs[i] = moqo.Request{Query: named(prefix), Algorithm: alg, Alpha: 1.5, Objectives: objs, Weights: weights}
			}
			items := moqo.OptimizeBatch(reqs)
			for i, it := range items {
				if it.Err != nil {
					t.Fatalf("member %d: %v", i, it.Err)
				}
				raw, err := it.Result.PlanJSON()
				if err != nil {
					t.Fatal(err)
				}
				prefix, other := prefixes[i], map[string]string{"x": "y", "y": "x"}[prefixes[i]]
				for _, n := range []string{"1", "2"} {
					if !bytes.Contains(raw, []byte(`"`+prefix+n+`"`)) || bytes.Contains(raw, []byte(`"`+other+n+`"`)) {
						t.Errorf("member %d wrote %s1,%s2; its plan names other relations:\n%s", i, prefix, prefix, raw)
					}
				}
				alone, err := moqo.Optimize(reqs[i])
				if err != nil {
					t.Fatal(err)
				}
				assertSameAnswer(t, fmt.Sprintf("member %d", i), it.Result, alone)
			}
			if items[2].Result != items[0].Result || !items[2].Reused {
				t.Error("the exact duplicate (same key, same names) was not deduped")
			}
			if alg != moqo.AlgoIRA && !items[1].Reused {
				t.Error("the renamed member was not answered from the first member's frontier")
			}
		})
	}
}

// TestBatchInvalidMemberIsIndependent pins that one invalid member fails
// alone without poisoning the batch.
func TestBatchInvalidMemberIsIndependent(t *testing.T) {
	reqs := batchWorkload(t)[:2]
	reqs = append(reqs, moqo.Request{}) // no query: invalid
	items := moqo.OptimizeBatch(reqs)
	if items[2].Err == nil {
		t.Fatal("invalid member did not fail")
	}
	for i := 0; i < 2; i++ {
		if items[i].Err != nil {
			t.Fatalf("valid member %d failed: %v", i, items[i].Err)
		}
	}
}

// TestBatchStreamEmitsEveryMemberOnce pins the streaming contract: one
// emission per member, none concurrent, all present.
func TestBatchStreamEmitsEveryMemberOnce(t *testing.T) {
	reqs := batchWorkload(t)
	seen := make(map[int]int)
	moqo.OptimizeBatchStream(context.Background(), reqs,
		moqo.BatchOptions{Parallel: 4}, func(i int, item moqo.BatchItem) {
			if item.Err != nil {
				t.Errorf("member %d: %v", i, item.Err)
			}
			seen[i]++
		})
	for i := range reqs {
		if seen[i] != 1 {
			t.Fatalf("member %d emitted %d times", i, seen[i])
		}
	}
}

// TestBatchCancelledAnswersEveryMemberOnce pins the path a frontier group
// takes when its leader leaves no frontier (here the context is cancelled
// before the batch starts): every other unit of the group runs — and fails
// — on its own, whichever query object it holds, and every member is still
// answered exactly once.
func TestBatchCancelledAnswersEveryMemberOnce(t *testing.T) {
	reqs := batchWorkload(t)
	// The same shapes built again, re-weighted: distinct query objects that
	// join the first copy's frontier groups as followers.
	for _, req := range batchWorkload(t) {
		if len(req.Weights) > 0 {
			req.Weights = map[moqo.Objective]float64{req.Objectives[0]: 1}
		}
		reqs = append(reqs, req)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen := make(map[int]int)
	moqo.OptimizeBatchStream(ctx, reqs, moqo.BatchOptions{Parallel: 4}, func(i int, item moqo.BatchItem) {
		if !errors.Is(item.Err, context.Canceled) {
			t.Errorf("member %d: err = %v, want context.Canceled", i, item.Err)
		}
		seen[i]++
	})
	for i := range reqs {
		if seen[i] != 1 {
			t.Errorf("member %d emitted %d times", i, seen[i])
		}
	}
}

// ExampleOptimizeBatch optimizes a small workload as one batch: the
// duplicate member is answered without a second dynamic program, and the
// re-weighted member is served from the first member's Pareto frontier.
func ExampleOptimizeBatch() {
	cat := moqo.TPCHCatalog(1)
	q3, _ := moqo.TPCHQuery(3, cat)

	base := moqo.Request{
		Query:      q3,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.2},
	}
	reweight := base
	reweight.Weights = map[moqo.Objective]float64{moqo.TotalTime: 0.1, moqo.Energy: 1}

	for i, item := range moqo.OptimizeBatch([]moqo.Request{base, base, reweight}) {
		fmt.Printf("member %d: plan found=%v reused=%v\n", i, item.Result.Plan != nil, item.Reused)
	}
	// Output:
	// member 0: plan found=true reused=false
	// member 1: plan found=true reused=true
	// member 2: plan found=true reused=true
}

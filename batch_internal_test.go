package moqo

import (
	"context"
	"testing"

	"moqo/internal/core"
	"moqo/internal/workload"
)

// batchChain builds a customer–orders–lineitem chain against cat.
func batchChain(t *testing.T, cat *Catalog) *Query {
	t.Helper()
	q := NewQuery("chain3", cat)
	c := q.AddRelation("customer", "c", 0.2)
	o := q.AddRelation("orders", "o", 0.5)
	l := q.AddRelation("lineitem", "l", 0.6)
	q.AddFKJoin(o, "o_custkey", c, "c_custkey")
	q.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	return q
}

// TestBatchDuplicatesRunOneDP pins the batch dedupe contract with the
// engine's run counter: N members resolving to the same cache key — plus
// re-weights of the same frontier — execute exactly one dynamic program,
// under both sequential and parallel fan-out. Run under -race in CI, this
// also exercises the concurrent scheduling paths.
func TestBatchDuplicatesRunOneDP(t *testing.T) {
	cat := TPCHCatalog(0.1)
	q := batchChain(t, cat)
	objs := []Objective{TotalTime, BufferFootprint, Energy}
	base := Request{
		Query:      q,
		Algorithm:  AlgoRTA,
		Alpha:      1.5,
		Objectives: objs,
		Weights:    map[Objective]float64{TotalTime: 1, BufferFootprint: 0.1, Energy: 0.3},
	}
	reweight := base
	reweight.Weights = map[Objective]float64{TotalTime: 0.2, BufferFootprint: 1, Energy: 0.7}

	for _, parallel := range []int{1, 4} {
		reqs := []Request{base, base, reweight, base, reweight, base}
		before := core.EngineRuns()
		items := OptimizeBatchContext(context.Background(), reqs, BatchOptions{Parallel: parallel})
		ran := core.EngineRuns() - before
		if ran != 1 {
			t.Fatalf("parallel=%d: %d members (4 identical + 2 re-weights) ran %d DPs, want exactly 1",
				parallel, len(reqs), ran)
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("parallel=%d: member %d failed: %v", parallel, i, it.Err)
			}
			if i != 0 && !it.Reused {
				t.Errorf("parallel=%d: member %d not marked reused", parallel, i)
			}
		}
		// Cache-key duplicates share the leader's Result by contract.
		if items[1].Result != items[0].Result {
			t.Error("duplicate members did not share the leader's Result")
		}
	}
}

// TestBatchSharedMemoCounters pins that overlapping-but-distinct members
// actually traffic the shared memo: a chain and its extension share every
// subproblem of the common prefix.
func TestBatchSharedMemoCounters(t *testing.T) {
	cat := TPCHCatalog(0.1)
	chain := batchChain(t, cat)
	ext := NewQuery("chain4", cat)
	c := ext.AddRelation("customer", "c", 0.2)
	o := ext.AddRelation("orders", "o", 0.5)
	l := ext.AddRelation("lineitem", "l", 0.6)
	n := ext.AddRelation("nation", "n", 1)
	ext.AddFKJoin(o, "o_custkey", c, "c_custkey")
	ext.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	ext.AddFKJoin(c, "c_nationkey", n, "n_nationkey")

	objs := []Objective{TotalTime, BufferFootprint}
	mk := func(q *Query) Request {
		// EXA prunes exactly (αi = 1 for every query size), so the chain's
		// subproblems are keyed identically inside the extension.
		return Request{
			Query:      q,
			Algorithm:  AlgoEXA,
			Objectives: objs,
			Weights:    map[Objective]float64{TotalTime: 1, BufferFootprint: 0.1},
		}
	}

	sm := NewSharedMemo()
	items := OptimizeBatchContext(context.Background(),
		[]Request{mk(chain), mk(ext)}, BatchOptions{Shared: sm})
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("member %d failed: %v", i, it.Err)
		}
	}
	hits, _, published := sm.Counters()
	if published == 0 {
		t.Fatal("batch published no subproblems")
	}
	// Whichever member ran second (the batch schedules most-expensive
	// first, so here the extension runs before the chain) must hit every
	// non-singleton connected subset of the shared prefix: {c,o}, {o,l},
	// {c,o,l}.
	if hits < 3 {
		t.Fatalf("batch hit %d shared subproblems, want >= 3", hits)
	}
	if s := items[0].Result.Stats.SharedMemoHits + items[1].Result.Stats.SharedMemoHits; s < 3 {
		t.Fatalf("members' Stats.SharedMemoHits sum to %d, want >= 3", s)
	}
}

// TestBatchMixedWorkloadRunsOneDPPerProblem pins dedupe, re-weighting and
// cross-query sharing together on the recurring-traffic mix batch_fresh is
// built from: workload.MixedBatch's 20 shuffled members — a chain, two of
// its prefixes and two TPC-H shapes, each with one exact duplicate and two
// re-weights — run exactly five dynamic programs, and the prefixes are
// served subproblems the full chain published.
func TestBatchMixedWorkloadRunsOneDPPerProblem(t *testing.T) {
	members, err := workload.MixedBatch(workload.BatchSpec{Tables: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(members))
	for i, m := range members {
		reqs[i] = Request{Query: m.Query, Objectives: m.Objectives.IDs(), Weights: map[Objective]float64{}}
		for _, o := range reqs[i].Objectives {
			reqs[i].Weights[o] = m.Weights[o]
		}
		if reqs[i].Algorithm = AlgoEXA; m.Algorithm != "exa" {
			reqs[i].Algorithm, reqs[i].Alpha = AlgoRTA, 1.5
		}
	}
	sm := NewSharedMemo()
	before := core.EngineRuns()
	items := OptimizeBatchContext(context.Background(), reqs, BatchOptions{Shared: sm})
	if ran := core.EngineRuns() - before; len(members) != 20 || ran != 5 {
		t.Errorf("%d members ran %d DPs, want 20 members and 5 DPs", len(members), ran)
	}
	reused := 0
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("member %d (%s): %v", i, members[i].Kind, it.Err)
		}
		if it.Reused {
			reused++
		}
	}
	if reused != len(members)-5 {
		t.Errorf("%d members reused, want %d", reused, len(members)-5)
	}
	// The prefixes share every non-singleton connected subset with the
	// full chain: {t0..t1}..{t0..t4} and {t0..t1}..{t0..t2}.
	if hits, _, _ := sm.Counters(); hits < 6 {
		t.Errorf("shared memo hits = %d, want >= 6", hits)
	}
}

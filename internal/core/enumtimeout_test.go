package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
)

// hubLastStar builds an n-table star whose hub is the last relation: the
// chain fallback's prefixes {r0..rk}, k < n-1, are then leaves only, with
// no predicate between them, so every split below the top one is a
// Cartesian product. Its 2^(n-1)+n-1 connected sets keep the walk going
// past its first stop poll for n >= 14.
func hubLastStar(t testing.TB, n int) *query.Query {
	t.Helper()
	cat := catalog.New()
	q := query.New(fmt.Sprintf("hub-last-star-%d", n), cat)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		cat.AddTable(name, float64(1000*(i+1)), 100, "pk")
		cat.AddIndex(catalog.TableID(i), "fk", false)
		q.AddRelation(name, name, 1)
	}
	for i := 0; i < n-1; i++ {
		q.AddFKJoin(n-1, "fk", i, "pk")
	}
	return q
}

// TestExhaustiveEnumerationObservesDeadline: on a clique every one of the
// 2^n - 1 subsets is connected, so the walk that materializes the levels
// is as exponential as a subset scan. It must observe the timeout at its
// first poll and fall back to the §5.1 degraded chain — still returning a
// valid plan over all tables, promptly.
func TestExhaustiveEnumerationObservesDeadline(t *testing.T) {
	q := buildShape(t, synthetic.Clique, 20, 1)
	m := costmodel.NewDefault(q)
	two := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	start := time.Now()
	res, err := RTAContext(expired(t), m, objective.UniformWeights(two), Options{Objectives: two, Alpha: 3})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("run under an expired deadline on a 20-clique did not report TimedOut")
	}
	if res.Best == nil || res.Best.Tables != q.AllTables() {
		t.Fatalf("degraded run returned no full plan: %v", res.Best)
	}
	// The walk stopped at its first poll, not after the 2^20 - 1 sets.
	if res.Stats.EnumSets != enumCheckMask+1 {
		t.Fatalf("enumeration visited %d sets, want %d (one poll interval)", res.Stats.EnumSets, enumCheckMask+1)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("degraded run took %v; the fallback is not prompt", elapsed)
	}
}

// TestExhaustiveEnumerationChainFallbackDisconnected: the chain fallback
// must also produce a plan when the peeled relation has no predicate to
// the prefix (Cartesian nested loops fill the gap) — here under a real
// 1 ms budget that expires while the walk of a hub-last star's 2^19+19
// connected sets is still under way.
func TestExhaustiveEnumerationChainFallbackDisconnected(t *testing.T) {
	q := hubLastStar(t, 20)
	m := costmodel.NewDefault(q)
	two := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := EXAContext(ctx, m, objective.UniformWeights(two), objective.NoBounds(), Options{Objectives: two})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("the walk of a hub-last 20-star finished within 1ms")
	}
	if res.Best == nil || res.Best.Tables != q.AllTables() {
		t.Fatal("star chain-fallback did not produce a full plan")
	}
	if err := res.Best.Validate(q); err != nil {
		t.Fatal(err)
	}
}

// TestEnumerationCancelDuringScan: the walk stops at the first poll that
// reports a stop and falls back to the chain, whatever ended the context —
// the engine's latches, not the enumeration, tell a deadline from a
// cancellation, and a cancelled run treats none of the chain. The poll is
// driven directly: the third one reports the stop.
func TestEnumerationCancelDuringScan(t *testing.T) {
	q := buildShape(t, synthetic.Clique, 20, 1)
	polls := 0
	e := enumerate(q, func() bool {
		polls++
		return polls == 3
	})
	if !e.chainFallback {
		t.Fatal("a stopped walk did not fall back to the chain")
	}
	if polls != 3 || e.scanned != 3*(enumCheckMask+1) {
		t.Fatalf("stopped after %d polls and %d sets, want 3 and %d", polls, e.scanned, 3*(enumCheckMask+1))
	}
	if e.total != 2*20-1 {
		t.Fatalf("the chain fallback holds %d sets, want %d", e.total, 2*20-1)
	}
}

// TestEnumerationDeadlineGraphWalk: the walk's poll reads a context's end
// by its error — DeadlineExceeded degrades the run, anything else abandons
// it — so a context that expires without declaring a Deadline (hookDeadline)
// still degrades instead of failing.
func TestEnumerationDeadlineGraphWalk(t *testing.T) {
	q := buildShape(t, synthetic.Clique, 20, 1)
	m := costmodel.NewDefault(q)
	two := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	ctx := &hookDeadline{Context: context.Background(), done: make(chan struct{})}
	ctx.expire()
	res, err := RTAContext(ctx, m, objective.UniformWeights(two), Options{Objectives: two, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Tables != q.AllTables() {
		t.Fatal("clique graph-walk fallback did not produce a full plan")
	}
	if !res.Stats.TimedOut || res.Stats.EnumSets != enumCheckMask+1 {
		t.Fatalf("TimedOut %v after %d sets: the walk did not fall back at its first poll",
			res.Stats.TimedOut, res.Stats.EnumSets)
	}
}

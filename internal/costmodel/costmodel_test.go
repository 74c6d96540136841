package costmodel

import (
	"math"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/workload"
)

func testQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(1)
	q := query.New("cm_test", cat)
	c := q.AddRelation(catalog.Customer, "c", 0.2)
	o := q.AddRelation(catalog.Orders, "o", 0.5)
	l := q.AddRelation(catalog.Lineitem, "l", 0.6)
	q.AddFKJoin(o, "o_custkey", c, "c_custkey")
	q.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	return q
}

func TestScanCostBasics(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	for _, alg := range []plan.ScanAlg{plan.SeqScan, plan.IndexScan} {
		v := m.ScanCost(2, alg, 0)
		if !v.Valid() {
			t.Fatalf("%v: invalid cost %v", alg, v)
		}
		if v[objective.TotalTime] <= 0 || v[objective.IOLoad] <= 0 || v[objective.CPULoad] <= 0 {
			t.Errorf("%v: non-positive core costs %v", alg, v)
		}
		if v[objective.Cores] != 1 {
			t.Errorf("%v: scan must use one core", alg)
		}
		if v[objective.TupleLoss] != 0 {
			t.Errorf("%v: unsampled scan must have zero loss", alg)
		}
		if v[objective.StartupTime] > v[objective.TotalTime] {
			t.Errorf("%v: startup exceeds total time", alg)
		}
	}
}

func TestSampleScanTradeoff(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	full := m.ScanCost(2, plan.SeqScan, 0)
	sampled := m.ScanCost(2, plan.SampleScan, 0.02)
	if sampled[objective.TupleLoss] != 0.98 {
		t.Errorf("loss = %v, want 0.98", sampled[objective.TupleLoss])
	}
	for _, o := range []objective.ID{objective.TotalTime, objective.IOLoad, objective.CPULoad, objective.Energy} {
		if sampled[o] >= full[o] {
			t.Errorf("sampling should reduce %v: %v >= %v", o, sampled[o], full[o])
		}
	}
	// Higher rate => more cost, less loss.
	s5 := m.ScanCost(2, plan.SampleScan, 0.05)
	if s5[objective.TotalTime] <= sampled[objective.TotalTime] {
		t.Error("5% sample should cost more time than 2%")
	}
	if s5[objective.TupleLoss] >= sampled[objective.TupleLoss] {
		t.Error("5% sample should lose fewer tuples than 2%")
	}
}

func TestIndexScanSelective(t *testing.T) {
	// With a very selective filter the index scan must beat the sequential
	// scan on time; with no filter it must lose (random IO penalty).
	cat := catalog.TPCH(1)
	q := query.New("sel", cat)
	q.AddRelation(catalog.Lineitem, "sel", 0.001)
	q.AddRelation(catalog.Lineitem, "all", 1.0)
	m := NewDefault(q)
	if idx, seq := m.ScanCost(0, plan.IndexScan, 0), m.ScanCost(0, plan.SeqScan, 0); idx[objective.TotalTime] >= seq[objective.TotalTime] {
		t.Errorf("selective index scan should win: idx=%v seq=%v", idx[objective.TotalTime], seq[objective.TotalTime])
	}
	if idx, seq := m.ScanCost(1, plan.IndexScan, 0), m.ScanCost(1, plan.SeqScan, 0); idx[objective.TotalTime] <= seq[objective.TotalTime] {
		t.Errorf("unselective index scan should lose: idx=%v seq=%v", idx[objective.TotalTime], seq[objective.TotalTime])
	}
}

func TestJoinCostValidAllOperators(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	left := m.NewScan(0, plan.SeqScan, 0)
	right := m.NewScan(1, plan.SeqScan, 0)
	for _, alg := range []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin} {
		for dop := 1; dop <= plan.MaxDOP; dop++ {
			n := m.NewJoin(alg, dop, left, right)
			if !n.Cost.Valid() {
				t.Fatalf("%v dop=%d: invalid cost", alg, dop)
			}
			if n.Cost[objective.StartupTime] > n.Cost[objective.TotalTime]+1e-9 {
				t.Errorf("%v dop=%d: startup %v exceeds total %v", alg, dop,
					n.Cost[objective.StartupTime], n.Cost[objective.TotalTime])
			}
			if n.Cost[objective.Cores] < float64(dop) {
				t.Errorf("%v dop=%d: cores %v below dop", alg, dop, n.Cost[objective.Cores])
			}
			if err := n.Validate(q); err != nil {
				t.Errorf("%v dop=%d: %v", alg, dop, err)
			}
		}
	}
}

func TestParallelismTimeEnergyTradeoff(t *testing.T) {
	// More cores => less time, more energy and CPU (coordination overhead):
	// the anti-correlation motivating energy as a separate objective.
	q := testQuery(t)
	m := NewDefault(q)
	left := m.NewScan(1, plan.SeqScan, 0)
	right := m.NewScan(2, plan.SeqScan, 0)
	j1 := m.NewJoin(plan.HashJoin, 1, left, right)
	j4 := m.NewJoin(plan.HashJoin, 4, left, right)
	if j4.Cost[objective.TotalTime] >= j1.Cost[objective.TotalTime] {
		t.Errorf("dop=4 should be faster: %v >= %v", j4.Cost[objective.TotalTime], j1.Cost[objective.TotalTime])
	}
	if j4.Cost[objective.Energy] <= j1.Cost[objective.Energy] {
		t.Errorf("dop=4 should use more energy: %v <= %v", j4.Cost[objective.Energy], j1.Cost[objective.Energy])
	}
	if j4.Cost[objective.CPULoad] <= j1.Cost[objective.CPULoad] {
		t.Errorf("dop=4 should use more CPU: %v <= %v", j4.Cost[objective.CPULoad], j1.Cost[objective.CPULoad])
	}
	if j4.Cost[objective.Cores] != 4 {
		t.Errorf("cores = %v, want 4", j4.Cost[objective.Cores])
	}
}

func TestTupleLossComposition(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	l := m.NewScan(1, plan.SampleScan, 0.05) // loss 0.95
	r := m.NewScan(2, plan.SampleScan, 0.02) // loss 0.98
	j := m.NewJoin(plan.HashJoin, 1, l, r)
	want := 1 - (1-0.95)*(1-0.98)
	if got := j.Cost[objective.TupleLoss]; math.Abs(got-want) > 1e-12 {
		t.Errorf("loss = %v, want %v", got, want)
	}
	if j.Cost[objective.TupleLoss] < 0 || j.Cost[objective.TupleLoss] > 1 {
		t.Error("loss out of [0,1]")
	}
}

func TestIndexNLCost(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	outer := m.NewScan(0, plan.SeqScan, 0) // customers
	// orders has index o_custkey (FK) — joinable via IdxNL.
	if col := m.InnerIndexColumn(outer.Tables, 1); col != "o_custkey" {
		t.Fatalf("InnerIndexColumn = %q, want o_custkey", col)
	}
	j := m.NewIndexNL(outer, 1)
	if !j.Cost.Valid() {
		t.Fatal("invalid IdxNL cost")
	}
	if j.DOP != 1 {
		t.Error("IdxNL must be sequential")
	}
	if j.Cost[objective.TupleLoss] != 0 {
		t.Error("IdxNL over unsampled operands must have zero loss")
	}
	if err := j.Validate(q); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Sampled outer propagates its loss; indexed inner adds none.
	sampled := m.NewScan(0, plan.SampleScan, 0.01)
	j2 := m.NewIndexNL(sampled, 1)
	if j2.Cost[objective.TupleLoss] != 0.99 {
		t.Errorf("loss = %v, want outer's 0.99", j2.Cost[objective.TupleLoss])
	}
}

func TestInnerIndexColumnAbsent(t *testing.T) {
	cat := catalog.TPCH(1)
	q := query.New("noidx", cat)
	a := q.AddRelation(catalog.Part, "p", 1)
	b := q.AddRelation(catalog.Lineitem, "l", 1)
	// Join on a non-indexed inner column.
	q.AddJoin(a, b, "p_partkey", "l_comment", 0.001)
	m := NewDefault(q)
	outer := m.NewScan(a, plan.SeqScan, 0)
	if col := m.InnerIndexColumn(outer.Tables, b); col != "" {
		t.Errorf("InnerIndexColumn = %q, want none", col)
	}
}

// TestInnerIndexColumnMatchesCrossingEdges holds InnerIndexColumn, which asks
// the query's edges in place, against the list it used to build: the first
// of query.CrossingEdges(outer, {inner}) whose inner-side column is indexed,
// for every outer set and inner relation of the TPC-H queries with joins — and
// pins it allocation-free.
func TestInnerIndexColumnMatchesCrossingEdges(t *testing.T) {
	cat := catalog.TPCH(1)
	want := func(q *query.Query, outer query.TableSet, inner int) string {
		tbl := q.Relations[inner].Table
		for _, e := range q.CrossingEdges(outer, query.Singleton(inner)) {
			col := e.RightCol
			if e.Left == inner {
				col = e.LeftCol
			}
			if cat.HasIndex(tbl, col) {
				return col
			}
		}
		return ""
	}
	found := 0
	for n := 1; n <= 22; n++ {
		q, err := workload.Query(n, cat)
		if err != nil || len(q.Relations) > 10 {
			continue
		}
		m := NewDefault(q)
		all := query.TableSet(1)<<len(q.Relations) - 1
		for outer := query.TableSet(1); outer <= all; outer++ {
			for inner := range q.Relations {
				if outer.Contains(inner) {
					continue
				}
				got := m.InnerIndexColumn(outer, inner)
				if w := want(q, outer, inner); got != w {
					t.Fatalf("q%d outer %b inner %d: %q, want %q", n, outer, inner, got, w)
				}
				if got != "" {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no outer set ever had an indexed inner column")
	}
	q := testQuery(t)
	m := NewDefault(q)
	outer := query.Singleton(1)
	if col := m.InnerIndexColumn(outer, 2); col == "" {
		t.Fatal("lineitem has no index on l_orderkey")
	}
	if n := testing.AllocsPerRun(100, func() { sinkColumn = m.InnerIndexColumn(outer, 2) }); n != 0 {
		t.Errorf("InnerIndexColumn: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.EachScanAlternative(2, true, func(plan.ScanAlg, float64, objective.Vector) bool { return true })
	}); n != 0 {
		t.Errorf("EachScanAlternative: %v allocs/op, want 0", n)
	}
}

var sinkColumn string

func TestScanAlternatives(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	with := m.ScanAlternatives(2, true)
	if len(with) != 7 { // seq + index + 5 sample rates
		t.Fatalf("alternatives = %d, want 7", len(with))
	}
	without := m.ScanAlternatives(2, false)
	if len(without) != 2 {
		t.Fatalf("alternatives without sampling = %d, want 2", len(without))
	}
	for _, n := range with {
		if err := n.Validate(q); err != nil {
			t.Errorf("%s: %v", n.OperatorLabel(), err)
		}
	}
}

func TestBNLInnerReexecution(t *testing.T) {
	// Block-nested-loop must charge the inner sub-plan once per outer
	// block (the t_L * c_R term of Observation 2).
	q := testQuery(t)
	m := NewDefault(q)
	outerBig := m.NewScan(2, plan.SeqScan, 0)  // lineitem: many blocks
	outerTiny := m.NewScan(0, plan.SeqScan, 0) // customer
	inner := m.NewScan(1, plan.SeqScan, 0)
	big := m.NewJoin(plan.BlockNLJoin, 1, outerBig, inner)
	tiny := m.NewJoin(plan.BlockNLJoin, 1, outerTiny, inner)
	// IO of the big-outer join must contain many inner rescans.
	bigRescans := (big.Cost[objective.IOLoad] - outerBig.Cost[objective.IOLoad]) / inner.Cost[objective.IOLoad]
	tinyRescans := (tiny.Cost[objective.IOLoad] - outerTiny.Cost[objective.IOLoad]) / inner.Cost[objective.IOLoad]
	if bigRescans <= tinyRescans {
		t.Errorf("bigger outer must force more inner rescans: %v <= %v", bigRescans, tinyRescans)
	}
	if tinyRescans < 1 {
		t.Errorf("at least one inner pass required, got %v", tinyRescans)
	}
}

func TestHashJoinSpill(t *testing.T) {
	// A build side larger than work_mem must spill (disk footprint, IO).
	q := testQuery(t)
	m := NewDefault(q)
	l := m.NewScan(0, plan.SeqScan, 0)
	r := m.NewScan(2, plan.SeqScan, 0) // lineitem >> work_mem
	j := m.NewJoin(plan.HashJoin, 1, l, r)
	if j.Cost[objective.DiskFootprint] <= 0 {
		t.Error("oversized build side should spill to disk")
	}
	// Small build side stays in memory.
	small := m.NewJoin(plan.HashJoin, 1, r, l)
	if small.Cost[objective.DiskFootprint] != l.Cost[objective.DiskFootprint]+r.Cost[objective.DiskFootprint] {
		t.Error("small build side should not spill")
	}
}

func TestJoinCostPanicsOnIndexNL(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	l := m.NewScan(0, plan.SeqScan, 0)
	r := m.NewScan(1, plan.SeqScan, 0)
	defer func() {
		if recover() == nil {
			t.Error("JoinCost(IndexNLJoin) did not panic")
		}
	}()
	m.JoinCost(plan.IndexNLJoin, 1, l, r)
}

func TestScanCostPanicsOnUnknownAlg(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	defer func() {
		if recover() == nil {
			t.Error("ScanCost(unknown) did not panic")
		}
	}()
	m.ScanCost(0, plan.ScanAlg(99), 0)
}

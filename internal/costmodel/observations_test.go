package costmodel

import (
	"math"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// These tests pin the growth properties the paper's complexity analysis
// assumes about cost formulas (Section 6.3, Observations 1-3 and Lemma 1).
// The RTA's archive-size bound (Lemma 2) — and with it Theorems 4-5 —
// only holds if the cost model actually satisfies them.

// Observation 1: the cost of a single-table plan grows at most
// quadratically in the table cardinality.
func TestObservation1ScanGrowth(t *testing.T) {
	for _, alg := range []plan.ScanAlg{plan.SeqScan, plan.IndexScan, plan.SampleScan} {
		var prev objective.Vector
		prevRows := 0.0
		for _, rows := range []float64{1e3, 1e4, 1e5, 1e6} {
			cat := catalog.New()
			cat.AddTable("t", rows, 100, "pk")
			q := query.New("obs1", cat)
			q.AddRelation("t", "t", 0.5)
			m := NewDefault(q)
			v := m.ScanCost(0, alg, 0.03)
			if prevRows > 0 {
				factor := rows / prevRows
				for _, o := range objective.All() {
					if prev[o] <= 0 {
						continue
					}
					growth := v[o] / prev[o]
					if growth > factor*factor*(1+1e-9) {
						t.Errorf("%v/%v: cost grew %vx for a %vx cardinality increase (super-quadratic)",
							alg, o, growth, factor)
					}
				}
			}
			prev, prevRows = v, rows
		}
	}
}

// Observation 3: every objective's cost is either zero or bounded below
// by an intrinsic constant — the property that lets Lemma 2 bucket costs
// into O(log(max)/log(alpha)) classes per objective.
func TestObservation3IntrinsicLowerBound(t *testing.T) {
	cat := catalog.TPCH(0.001) // tiny scale: the smallest realistic costs
	q := query.New("obs3", cat)
	q.AddRelation(catalog.Nation, "n", 0.04)
	q.AddRelation(catalog.Region, "r", 0.2)
	q.AddJoin(0, 1, "n_regionkey", "r_regionkey", 0.2)
	m := NewDefault(q)
	const intrinsic = 1e-12
	check := func(v objective.Vector, label string) {
		t.Helper()
		for _, o := range objective.All() {
			if v[o] != 0 && v[o] < intrinsic {
				t.Errorf("%s/%v: cost %v below any plausible intrinsic constant", label, o, v[o])
			}
		}
	}
	for _, n := range m.ScanAlternatives(0, true) {
		check(n.Cost, n.OperatorLabel())
	}
	l := m.NewScan(0, plan.SeqScan, 0)
	r := m.NewScan(1, plan.SeqScan, 0)
	for _, alg := range []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin} {
		check(m.NewJoin(alg, 1, l, r).Cost, alg.String())
	}
}

// Lemma 1: the cost of a plan joining n tables of cardinality <= m is
// bounded by O(m^(2n)) in every objective. We check a generous concrete
// instantiation: cost <= C * m^(2n) with C = 1e6, far looser than the
// lemma needs but tight enough to catch super-polynomial blowups.
func TestLemma1CostUpperBound(t *testing.T) {
	m := 1000.0
	for n := 1; n <= 4; n++ {
		cat := catalog.New()
		q := query.New("lemma1", cat)
		for i := 0; i < n; i++ {
			cat.AddTable(tname(i), m, 100, "pk")
			cat.AddIndex(catalog.TableID(i), "fk", false)
			q.AddRelation(tname(i), tname(i), 1)
		}
		for i := 1; i < n; i++ {
			q.AddFKJoin(i-1, "fk", i, "pk")
		}
		model := NewDefault(q)
		// Build a worst-ish-case left-deep plan of block-nested loops
		// (the most expensive operator family).
		p := model.NewScan(0, plan.SeqScan, 0)
		for i := 1; i < n; i++ {
			p = model.NewJoin(plan.BlockNLJoin, 1, p, model.NewScan(i, plan.SeqScan, 0))
		}
		bound := 1e6 * math.Pow(m, float64(2*n))
		for _, o := range objective.All() {
			if p.Cost[o] > bound {
				t.Errorf("n=%d %v: cost %v exceeds C*m^(2n) = %v", n, o, p.Cost[o], bound)
			}
		}
	}
}

func tname(i int) string { return string(rune('a' + i)) }

// Observation 2 (structure): the join formulas' own terms depend only on
// table-set constants, so combining identical-cost children over
// different physical child operators yields identical join costs.
//
// The types enforce the stronger statement: PrepareJoin and PrepareIndexNL
// take operand table sets and nothing of a sub-plan, so a term cannot
// depend on a child cost, and Apply takes child cost vectors and nothing
// of the query, so it cannot look a cardinality up. What remains to test
// is that the pair is the formula: terms prepared once, before any child
// exists, cost every pair of children exactly as costing the finished
// plan nodes does.
func TestObservation2CostsDependOnlyOnChildCostAndSets(t *testing.T) {
	q := testQuery(t)
	m := NewDefault(q)
	c := m.ScanCost(0, plan.SeqScan, 0)
	// Two children with identical table sets and cost vectors but
	// different operator labels.
	a := &plan.Node{Tables: query.Singleton(0), Scan: plan.SeqScan, Relation: 0, Cost: c}
	b := &plan.Node{Tables: query.Singleton(0), Scan: plan.IndexScan, Relation: 0, Cost: c}
	r := m.NewScan(1, plan.SeqScan, 0)
	for _, alg := range []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin} {
		va := m.JoinCost(alg, 2, a, r)
		vb := m.JoinCost(alg, 2, b, r)
		if va != vb {
			t.Errorf("%v: join cost depends on child identity beyond cost/tables:\n%v\nvs\n%v", alg, va, vb)
		}
	}

	left, right := query.Singleton(0), query.Singleton(1)
	var joins []JoinTerms
	for _, alg := range storedJoinAlgs {
		joins = append(joins, m.PrepareJoin(alg, 2, left, right))
	}
	indexNL := m.PrepareIndexNL(left, 1)
	for _, l := range m.ScanAlternatives(0, true) {
		for _, r := range m.ScanAlternatives(1, true) {
			for i := range joins {
				if got, want := joins[i].Apply(&l.Cost, &r.Cost), m.JoinCost(joins[i].Alg, 2, l, r); got != want {
					t.Errorf("%v over %v, %v: prepared terms give\n%v\nthe plan nodes\n%v", joins[i].Alg, l.Scan, r.Scan, got, want)
				}
			}
		}
		if got, want := indexNL.Apply(&l.Cost), m.IndexNLCost(l, 1); got != want {
			t.Errorf("IndexNL over %v: prepared terms give\n%v\nthe plan node\n%v", l.Scan, got, want)
		}
	}
}

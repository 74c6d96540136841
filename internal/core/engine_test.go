package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// TestCartesianFallback: the one place the engine still builds Cartesian
// products is the chain fallback (forEachCandidateChain), for a prefix
// with no predicate to the relation it peels — and there, as Postgres
// heuristic (i) requires, only with block-nested-loop joins: hash and
// sort-merge joins need an equi-join predicate. On a star whose hub is the
// last relation every prefix below the top is leaves only, so every join
// of the plan but the top one is such a product.
func TestCartesianFallback(t *testing.T) {
	q := hubLastStar(t, 14)
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	res, err := RTAContext(expired(t), costmodel.NewDefault(q), objective.UniformWeights(objs),
		Options{Objectives: objs, Alpha: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut || res.Stats.EnumSets != enumCheckMask+1 {
		t.Fatalf("TimedOut %v after %d sets: the walk did not fall back at its first poll",
			res.Stats.TimedOut, res.Stats.EnumSets)
	}
	if err := res.Best.Validate(q); err != nil {
		t.Fatal(err)
	}
	products := 0
	var walk func(p *plan.Node)
	walk = func(p *plan.Node) {
		if p.IsScan() {
			return
		}
		if !q.ConnectedTo(p.Left.Tables, p.Right.Tables) {
			products++
			if p.Join != plan.BlockNLJoin {
				t.Errorf("Cartesian product %v x %v joined by %v", p.Left.Tables, p.Right.Tables, p.Join)
			}
		}
		walk(p.Left)
		walk(p.Right)
	}
	walk(res.Best)
	if want := q.NumRelations() - 2; products != want {
		t.Errorf("plan has %d Cartesian products, want %d", products, want)
	}
}

// TestDisconnectedJoinGraphIsAnError: the engine enumerates connected
// table sets only, so a join graph with two components — which only a
// Cartesian product could join — is refused by every entry point with the
// query's validation error, and none of them panics or answers with a
// plan; so is a query with no relations. (moqo.Resolve and the server reject such a query before it gets
// here; this is core called directly.)
func TestDisconnectedJoinGraphIsAnError(t *testing.T) {
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	w := objective.UniformWeights(objs)
	bounds := objective.NoBounds().With(objective.TotalTime, 1e12)
	opts := Options{Objectives: objs, Alpha: 1.5}
	vec := opts
	vec.Precision = objective.UniformPrecision(1.5, objs)
	entries := []struct {
		name string
		run  func(m *costmodel.Model) (Result, error)
	}{
		{"EXA", func(m *costmodel.Model) (Result, error) { return EXA(m, w, objective.NoBounds(), opts) }},
		{"RTA", func(m *costmodel.Model) (Result, error) { return RTA(m, w, opts) }},
		{"RTA per objective", func(m *costmodel.Model) (Result, error) { return RTA(m, w, vec) }},
		{"IRA", func(m *costmodel.Model) (Result, error) { return IRA(m, w, bounds, opts) }},
		{"Selinger", func(m *costmodel.Model) (Result, error) { return Selinger(m, objective.TotalTime, opts) }},
		{"WeightedSumDP", func(m *costmodel.Model) (Result, error) { return WeightedSumDP(m, w, opts) }},
		{"ObjectiveMinima", func(m *costmodel.Model) (Result, error) {
			_, err := ObjectiveMinima(m, opts)
			return Result{}, err
		}},
		{"ReferenceEXA", func(m *costmodel.Model) (Result, error) {
			return ReferenceEXA(m, w, objective.NoBounds(), opts)
		}},
	}
	cross := query.New("cross", catalog.TPCH(0.01))
	cross.AddRelation(catalog.Region, "r", 1)
	cross.AddRelation(catalog.Nation, "n", 1)
	invalid := []struct {
		q    *query.Query
		want string
	}{
		{cross, "join graph not connected"},
		{disconnectedQuery(t), "join graph not connected"},
		{query.New("empty", catalog.TPCH(0.01)), "no relations"},
	}
	for _, tc := range invalid {
		q := tc.q
		for _, entry := range entries {
			res, err := entry.run(costmodel.NewDefault(q))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s on %s: err = %v, want the validation error", entry.name, q.Name, err)
			}
			if res.Best != nil {
				t.Errorf("%s on %s: answered with a plan", entry.name, q.Name)
			}
		}
	}
}

// TestDeterminism: the dynamic program must be fully deterministic — same
// query, same options, same plan and stats (modulo wall-clock duration).
func TestDeterminism(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.3

	var sigs []string
	var considered []int
	for i := 0; i < 3; i++ {
		res, err := RTA(m, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, res.Best.Signature(q))
		considered = append(considered, res.Stats.Considered)
	}
	for i := 1; i < 3; i++ {
		if sigs[i] != sigs[0] {
			t.Errorf("run %d produced different plan:\n%s\nvs\n%s", i, sigs[i], sigs[0])
		}
		if considered[i] != considered[0] {
			t.Errorf("run %d considered %d plans vs %d", i, considered[i], considered[0])
		}
	}
}

// TestFrontierPlansAreValid: every plan the optimizer stores must pass
// structural validation and cover exactly the query's tables.
func TestFrontierPlansAreValid(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	res, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Frontier.Plans() {
		if p.Tables != q.AllTables() {
			t.Errorf("frontier plan covers %v", p.Tables)
		}
		if err := p.Validate(q); err != nil {
			t.Errorf("invalid frontier plan: %v", err)
		}
	}
}

// TestConsideredCountsGrowWithDOP: widening the operator space must
// enlarge the number of considered plans.
func TestConsideredCountsGrowWithDOP(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	prev := 0
	for _, dop := range []int{1, 2, 4} {
		opts := Options{Objectives: threeObjs, MaxDOP: dop}
		res, err := EXA(m, w, objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Considered <= prev {
			t.Errorf("MaxDOP=%d considered %d plans, not more than %d", dop, res.Stats.Considered, prev)
		}
		prev = res.Stats.Considered
	}
}

// TestColumnMins holds the block tiers' column minima (columnMins) to a
// plain fold over the rows, on a side of more rows than have block minima of
// their own: every kept block, and the whole side, whose minimum must take in
// the rows past the last kept block too. A NaN in a column makes its minimum
// NaN, as Go's min does.
func TestColumnMins(t *testing.T) {
	n := maxBlocks*blockRows + 3*blockRows + 5
	a := pareto.NewFlat(pareto.NewFlatConfig(objective.AllSet(), 1))
	r := rand.New(rand.NewSource(1))
	for i := range n {
		var v objective.Vector
		for o := range v {
			v[o] = r.Float64() * 100
		}
		// An antichain on the first two objectives: every row is stored.
		v[objective.TotalTime], v[objective.StartupTime] = float64(i), float64(n-i)
		if i == n-2 {
			v[objective.Energy] = math.NaN()
		}
		if i == n-1 {
			v[objective.CPULoad] = -1 // the side's minimum lies past the kept blocks
		}
		if !a.Insert(v, plan.Entry{}) {
			t.Fatalf("row %d not stored", i)
		}
	}
	fold := func(lo, hi int32) objective.Vector {
		m := a.CostAt(lo)
		for i := lo + 1; i < hi; i++ {
			v := a.CostAt(i)
			for o := range m {
				m[o] = min(m[o], v[o])
			}
		}
		return m
	}
	same := func(x, y objective.Vector) bool {
		for o := range x {
			if math.Float64bits(x[o]) != math.Float64bits(y[o]) {
				return false
			}
		}
		return true
	}
	for _, lo := range []int32{0, 3} {
		var out [maxBlocks + 1]objective.Vector
		columnMins(a, lo, int32(n), &out)
		for b := range maxBlocks {
			at := lo + int32(b*blockRows)
			if want := fold(at, at+blockRows); !same(out[b], want) {
				t.Fatalf("lo %d block %d: %v, want %v", lo, b, out[b], want)
			}
		}
		if want := fold(lo, int32(n)); !same(out[maxBlocks], want) {
			t.Fatalf("lo %d whole side: %v, want %v", lo, out[maxBlocks], want)
		}
		if !math.IsNaN(out[maxBlocks][objective.Energy]) || out[maxBlocks][objective.CPULoad] != -1 {
			t.Fatalf("lo %d: the whole side's minimum missed the rows past the kept blocks: %v", lo, out[maxBlocks])
		}
	}
}

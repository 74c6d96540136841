package core

import (
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
)

// singleRelationQuery builds a one-relation query (n = 1: no joins at all).
func singleRelationQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(0.01)
	q := query.New("single", cat)
	q.AddRelation(catalog.Region, "r", 1)
	return q
}

// twoRelationQuery builds the minimal join query (n = 2).
func twoRelationQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(0.01)
	q := query.New("pair", cat)
	a := q.AddRelation(catalog.Nation, "n", 1)
	b := q.AddRelation(catalog.Region, "r", 1)
	q.AddFKJoin(a, "n_regionkey", b, "r_regionkey")
	return q
}

// disconnectedQuery builds a three-relation query whose join graph has two
// components: every plan would need a Cartesian product, so the engine
// refuses it.
func disconnectedQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(0.01)
	q := query.New("split", cat)
	a := q.AddRelation(catalog.Customer, "c", 0.5)
	b := q.AddRelation(catalog.Orders, "o", 0.5)
	q.AddRelation(catalog.Region, "r", 1)
	q.AddFKJoin(b, "o_custkey", a, "c_custkey")
	return q
}

func TestEnumerateSingleRelation(t *testing.T) {
	q := singleRelationQuery(t)
	e := enumerate(q, nil)
	if e.n != 1 || e.total != 1 {
		t.Fatalf("n=%d total=%d, want 1 and 1", e.n, e.total)
	}
	if len(e.levels[1]) != 1 || e.levels[1][0] != query.Singleton(0) {
		t.Fatalf("level 1 = %v, want [{0}]", e.levels[1])
	}
	if e.all != query.Singleton(0) {
		t.Fatalf("all = %v", e.all)
	}
}

func TestEnumerateTwoRelations(t *testing.T) {
	q := twoRelationQuery(t)
	e := enumerate(q, nil)
	if e.total != 3 {
		t.Fatalf("total = %d, want 3 (two singletons + the pair)", e.total)
	}
	if len(e.levels[1]) != 2 || len(e.levels[2]) != 1 {
		t.Fatalf("level sizes = %d/%d, want 2/1", len(e.levels[1]), len(e.levels[2]))
	}
	if e.levels[2][0] != e.all {
		t.Fatalf("level 2 = %v, want the full set %v", e.levels[2], e.all)
	}
}

// TestEnumerateConnectedOnly: for a connected chain, only connected
// subsets are materialized — a chain of n relations has exactly
// n*(n+1)/2 connected subpaths.
func TestEnumerateConnectedOnly(t *testing.T) {
	q := chainQuery(t) // customer–orders–lineitem chain, n = 3
	e := enumerate(q, nil)
	if want := 3 * 4 / 2; e.total != want {
		t.Fatalf("total = %d, want %d connected subpaths", e.total, want)
	}
	for k := 1; k <= e.n; k++ {
		for _, s := range e.levels[k] {
			if s.Len() != k {
				t.Errorf("level %d holds %v of cardinality %d", k, s, s.Len())
			}
			if !q.Connected(s) {
				t.Errorf("level %d holds disconnected set %v", k, s)
			}
		}
	}
}

// TestMemoTableIDs: ids are dense (0..total-1), level-major, and -1 for
// sets outside the enumeration.
func TestMemoTableIDs(t *testing.T) {
	q := chainQuery(t)
	e := enumerate(q, nil)
	m := newMemoTable(e)

	seen := make(map[int32]bool)
	prev := int32(-1)
	for k := 1; k <= e.n; k++ {
		for _, s := range e.levels[k] {
			id := m.id(s)
			if id < 0 || int(id) >= e.total {
				t.Fatalf("id(%v) = %d out of range", s, id)
			}
			if seen[id] {
				t.Fatalf("id %d assigned twice", id)
			}
			seen[id] = true
			if id != prev+1 {
				t.Fatalf("ids not level-major dense: %d after %d", id, prev)
			}
			prev = id
		}
	}
	// The chain 0-1-2 has no edge 0-2: {0,2} is disconnected and must not
	// be enumerated.
	if id := m.id(query.NewTableSet(0, 2)); id != -1 {
		t.Errorf("disconnected set got id %d, want -1", id)
	}
	if a := m.lookup(query.NewTableSet(0, 2)); a != nil {
		t.Errorf("lookup of unenumerated set = %v, want nil", a)
	}
}

// TestMemoTableSparseFallback: beyond memoDenseMaxRelations the memo
// falls back to the map index; id semantics must be identical.
func TestMemoTableSparseFallback(t *testing.T) {
	e := &enumeration{
		n:      memoDenseMaxRelations + 1,
		levels: make([][]query.TableSet, memoDenseMaxRelations+2),
	}
	e.levels[1] = []query.TableSet{query.Singleton(0), query.Singleton(memoDenseMaxRelations)}
	e.total = 2
	m := newMemoTable(e)
	if m.dense != nil {
		t.Fatal("expected sparse index above the dense cap")
	}
	if m.id(query.Singleton(0)) != 0 || m.id(query.Singleton(memoDenseMaxRelations)) != 1 {
		t.Errorf("sparse ids = %d, %d", m.id(query.Singleton(0)), m.id(query.Singleton(memoDenseMaxRelations)))
	}
	if m.id(query.Singleton(1)) != -1 {
		t.Errorf("unenumerated sparse id = %d, want -1", m.id(query.Singleton(1)))
	}
}

// TestEngineSingleRelation: the degenerate n = 1 dynamic program must
// return the best access path.
func TestEngineSingleRelation(t *testing.T) {
	q := singleRelationQuery(t)
	m := costmodel.NewDefault(q)
	res, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || !res.Best.IsScan() {
		t.Fatalf("n=1 best plan = %v, want a scan", res.Best)
	}
	if res.Best.Tables != q.AllTables() {
		t.Errorf("plan covers %v", res.Best.Tables)
	}
}

// TestEngineTwoRelations: n = 2 must produce a single join of two scans.
func TestEngineTwoRelations(t *testing.T) {
	q := twoRelationQuery(t)
	m := costmodel.NewDefault(q)
	res, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.IsScan() {
		t.Fatalf("n=2 best plan = %v, want a join", res.Best)
	}
	if err := res.Best.Validate(q); err != nil {
		t.Error(err)
	}
}

package query

import (
	"fmt"
	"math"
	"testing"

	"moqo/internal/catalog"
)

// threeWay builds a customer ⋈ orders ⋈ lineitem query (the shape of
// TPC-H Q3) for use across tests.
func threeWay(t testing.TB) *Query {
	t.Helper()
	cat := catalog.TPCH(1)
	q := New("test3", cat)
	c := q.AddRelation(catalog.Customer, "c", 0.2)
	o := q.AddRelation(catalog.Orders, "o", 0.5)
	l := q.AddRelation(catalog.Lineitem, "l", 0.6)
	q.AddFKJoin(o, "o_custkey", c, "c_custkey")
	q.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEstimateBaseRows(t *testing.T) {
	q := threeWay(t)
	// customer: 150000 * 0.2
	if got := q.EstimateRows(Singleton(0)); got != 30000 {
		t.Errorf("customer rows = %v, want 30000", got)
	}
	// orders: 1.5e6 * 0.5
	if got := q.EstimateRows(Singleton(1)); got != 750000 {
		t.Errorf("orders rows = %v, want 750000", got)
	}
}

func TestEstimateJoinRows(t *testing.T) {
	q := threeWay(t)
	// orders ⋈ customer via FK: sel = 1/150000.
	co := NewTableSet(0, 1)
	want := 30000.0 * 750000.0 / 150000.0
	if got := q.EstimateRows(co); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("c⋈o rows = %v, want %v", got, want)
	}
	// Cartesian pair customer × lineitem (no edge internal to the set).
	cl := NewTableSet(0, 2)
	wantCL := 30000.0 * 6_000_000 * 0.6
	if got := q.EstimateRows(cl); math.Abs(got-wantCL)/wantCL > 1e-12 {
		t.Errorf("c×l rows = %v, want %v", got, wantCL)
	}
	// Full join applies both edge selectivities.
	all := q.AllTables()
	wantAll := 30000.0 * 750000.0 * 3_600_000 / 150000.0 / 1_500_000
	if got := q.EstimateRows(all); math.Abs(got-wantAll)/wantAll > 1e-12 {
		t.Errorf("full join rows = %v, want %v", got, wantAll)
	}
}

func TestEstimateRowsFloorsAtOne(t *testing.T) {
	cat := catalog.TPCH(1)
	q := New("tiny", cat)
	a := q.AddRelation(catalog.Region, "r1", 0.01)
	b := q.AddRelation(catalog.Nation, "n1", 0.01)
	q.AddJoin(a, b, "r_regionkey", "n_regionkey", 0.001)
	if got := q.EstimateRows(q.AllTables()); got != 1 {
		t.Errorf("rows = %v, want floor of 1", got)
	}
	if got := q.EstimateRows(TableSet(0)); got != 0 {
		t.Errorf("rows of empty set = %v, want 0", got)
	}
}

// TestEstimatesArePure: an estimate is a function of the table set alone —
// the same bits on a repeat call and after estimates of other sets were
// interleaved (the query keeps no memo they could disturb). The table is
// every non-empty set of the threeWay fixture, pinned at the commit before
// the memo left the query: the multiplication order (relations ascending,
// then edges as declared) must not move a bit.
func TestEstimatesArePure(t *testing.T) {
	q := threeWay(t)
	want := []struct {
		rows  uint64
		width int
	}{
		1: {0x40dd4c0000000000, 179},
		2: {0x4126e36000000000, 104},
		3: {0x41024f8000000000, 283},
		4: {0x414b774000000000, 112},
		5: {0x4239254d38000000, 291},
		6: {0x413b774000000000, 216},
		7: {0x4115f90000000000, 395},
	}
	for pass := 0; pass < 2; pass++ {
		for s := q.AllTables(); s >= 1; s-- {
			for other := TableSet(1); other <= q.AllTables(); other++ {
				q.EstimateRows(other)
			}
			if got := math.Float64bits(q.EstimateRows(s)); got != want[s].rows {
				t.Errorf("pass %d: EstimateRows(%v) = %#x, want %#x", pass, s, got, want[s].rows)
			}
			if got := q.EstimateWidth(s); got != want[s].width {
				t.Errorf("pass %d: EstimateWidth(%v) = %d, want %d", pass, s, got, want[s].width)
			}
		}
	}
}

func TestEstimateWidth(t *testing.T) {
	q := threeWay(t)
	// customer (179) + orders (104)
	if got := q.EstimateWidth(NewTableSet(0, 1)); got != 283 {
		t.Errorf("width = %d, want 283", got)
	}
}

func TestConnectivity(t *testing.T) {
	q := threeWay(t)
	if !q.Connected(q.AllTables()) {
		t.Error("chain query must be connected")
	}
	if !q.Connected(Singleton(2)) {
		t.Error("singleton must be connected")
	}
	// customer and lineitem share no edge.
	if q.Connected(NewTableSet(0, 2)) {
		t.Error("{c,l} must be disconnected")
	}
	if q.Connected(TableSet(0)) {
		t.Error("empty set must not be connected")
	}
	if !q.ConnectedTo(Singleton(0), Singleton(1)) {
		t.Error("c and o are joined")
	}
	if q.ConnectedTo(Singleton(0), Singleton(2)) {
		t.Error("c and l are not joined")
	}
}

func TestNeighbors(t *testing.T) {
	q := threeWay(t)
	if got := q.Neighbors(Singleton(1)); got != NewTableSet(0, 2) {
		t.Errorf("neighbors of orders = %v", got)
	}
	if got := q.Neighbors(NewTableSet(0, 1)); got != Singleton(2) {
		t.Errorf("neighbors of {c,o} = %v", got)
	}
}

func TestCrossingEdges(t *testing.T) {
	q := threeWay(t)
	edges := q.CrossingEdges(NewTableSet(0, 1), Singleton(2))
	if len(edges) != 1 || edges[0].LeftCol != "l_orderkey" {
		t.Errorf("crossing edges = %v", edges)
	}
	if got := q.CrossingEdges(Singleton(0), Singleton(2)); len(got) != 0 {
		t.Errorf("unexpected crossing edges: %v", got)
	}
}

func TestValidate(t *testing.T) {
	cat := catalog.TPCH(1)
	empty := New("empty", cat)
	if err := empty.Validate(); err == nil {
		t.Error("empty query must not validate")
	}
	disc := New("disc", cat)
	disc.AddRelation(catalog.Region, "a", 1)
	disc.AddRelation(catalog.Nation, "b", 1)
	if err := disc.Validate(); err == nil {
		t.Error("disconnected query must not validate")
	}
	single := New("single", cat)
	single.AddRelation(catalog.Lineitem, "l", 1)
	if err := single.Validate(); err != nil {
		t.Errorf("single-relation query should validate: %v", err)
	}
}

func TestConstructionPanics(t *testing.T) {
	cat := catalog.TPCH(1)
	q := New("p", cat)
	a := q.AddRelation(catalog.Region, "a", 1)
	b := q.AddRelation(catalog.Nation, "b", 1)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad selectivity", func() { q.AddRelation(catalog.Part, "c", 0) })
	mustPanic("duplicate alias", func() { q.AddRelation(catalog.Part, "a", 1) })
	mustPanic("self join edge", func() { q.AddJoin(a, a, "x", "x", 0.5) })
	mustPanic("edge out of range", func() { q.AddJoin(a, 17, "x", "y", 0.5) })
	mustPanic("bad join selectivity", func() { q.AddJoin(a, b, "x", "y", 0) })
}

func TestString(t *testing.T) {
	q := threeWay(t)
	s := q.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"test3", "o_custkey", "l_orderkey"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestAddRelationEErrors: the error-returning builders refuse what the
// panicking ones do, in a fixed order, with the texts moqod answers 400
// with; a refused relation or join leaves the query unchanged.
func TestAddRelationEErrors(t *testing.T) {
	q := New("q", catalog.TPCH(1))
	q.AddRelation(catalog.Region, "a", 1)
	q.AddRelation(catalog.Nation, "b", 1)
	for _, tc := range []struct {
		table, alias string
		sel          float64
		want         string
	}{
		{"nope", "a", 0, `query: unknown table "nope"`},
		{catalog.Part, "a", 0, `query: duplicate alias "a" (set an explicit alias)`},
		{catalog.Part, "c", 0, `query: relation "c": filter_sel 0 out of (0,1]`},
		{catalog.Part, "c", math.NaN(), `query: relation "c": filter_sel NaN out of (0,1]`},
	} {
		if _, err := q.AddRelationE(tc.table, tc.alias, tc.sel); err == nil || err.Error() != tc.want {
			t.Errorf("AddRelationE(%q, %q, %v) = %v, want %s", tc.table, tc.alias, tc.sel, err, tc.want)
		}
	}
	for _, tc := range []struct {
		l, r int
		sel  float64
		want string
	}{
		{0, 0, 0, `query: bad join edge 0-0`},
		{0, 2, 0, `query: bad join edge 0-2`},
		{-1, 1, 0, `query: bad join edge -1-1`},
		{0, 1, 1.5, `query: join 0-1: selectivity 1.5 out of (0,1]`},
	} {
		if err := q.AddJoinE(tc.l, tc.r, "x", "y", tc.sel); err == nil || err.Error() != tc.want {
			t.Errorf("AddJoinE(%d, %d, %v) = %v, want %s", tc.l, tc.r, tc.sel, err, tc.want)
		}
	}
	if len(q.Relations) != 2 || len(q.Edges) != 0 || !q.Neighbors(Singleton(0)).Empty() {
		t.Error("a refused relation or join changed the query")
	}
	full := New("full", catalog.TPCH(1))
	for i := 0; i < 64; i++ {
		full.AddRelation(catalog.Region, fmt.Sprint(i), 1)
	}
	if _, err := full.AddRelationE("nope", "x", 1); err == nil || err.Error() != "query: too many relations (max 64)" {
		t.Errorf("the 65th relation: %v", err)
	}
}

// TestKeyEncoders: an edge encodes alike whichever way round it was
// declared, and a relation encodes its table's name and its filter, not
// its alias.
func TestKeyEncoders(t *testing.T) {
	e := JoinEdge{Left: 3, Right: 1, LeftCol: "c:1", RightCol: "b", Selectivity: 0.25}
	flipped := JoinEdge{Left: 1, Right: 3, LeftCol: "b", RightCol: "c:1", Selectivity: 0.25}
	if got := string(e.AppendKey(nil)); got != "1.1:b-3.3:c:1=0.25" || got != string(flipped.AppendKey(nil)) {
		t.Errorf("edge key %q, flipped %q", got, flipped.AppendKey(nil))
	}
	q := New("q", catalog.TPCH(1))
	q.AddRelation(catalog.Nation, "n1", 0.5)
	if got := string(q.AppendRelationKey([]byte("x,"), 0)); got != "x,6:nation=0.5" {
		t.Errorf("relation key %q", got)
	}
}

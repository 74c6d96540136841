package catalog

import (
	"math"
	"testing"
)

func TestTPCHScaleFactor1(t *testing.T) {
	c := TPCH(1)
	want := map[string]float64{
		Region:   5,
		Nation:   25,
		Supplier: 10_000,
		Customer: 150_000,
		Part:     200_000,
		PartSupp: 800_000,
		Orders:   1_500_000,
		Lineitem: 6_000_000,
	}
	if c.NumTables() != len(want) {
		t.Fatalf("NumTables = %d, want %d", c.NumTables(), len(want))
	}
	for name, rows := range want {
		id, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		if got := c.Table(id).Rows; got != rows {
			t.Errorf("%s rows = %v, want %v", name, got, rows)
		}
	}
	if got := c.MaxRows(); got != 6_000_000 {
		t.Errorf("MaxRows = %v, want lineitem's 6e6", got)
	}
}

func TestTPCHScaling(t *testing.T) {
	c10 := TPCH(10)
	id := c10.MustLookup(Lineitem)
	if got := c10.Table(id).Rows; got != 60_000_000 {
		t.Errorf("SF10 lineitem rows = %v, want 6e7", got)
	}
	// Fixed-size tables do not scale.
	if got := c10.Table(c10.MustLookup(Nation)).Rows; got != 25 {
		t.Errorf("SF10 nation rows = %v, want 25", got)
	}
}

func TestTPCHIndexes(t *testing.T) {
	c := TPCH(1)
	pk := map[string]string{
		Region:   "r_regionkey",
		Nation:   "n_nationkey",
		Supplier: "s_suppkey",
		Customer: "c_custkey",
		Part:     "p_partkey",
		PartSupp: "ps_partkey",
		Orders:   "o_orderkey",
		Lineitem: "l_orderkey",
	}
	for name, col := range pk {
		id := c.MustLookup(name)
		if !c.HasIndex(id, col) {
			t.Errorf("%s: missing PK index on %s", name, col)
		}
	}
	// Foreign-key indexes.
	fk := [][2]string{
		{Nation, "n_regionkey"},
		{Supplier, "s_nationkey"},
		{Customer, "c_nationkey"},
		{Orders, "o_custkey"},
		{Lineitem, "l_partkey"},
		{Lineitem, "l_suppkey"},
		{PartSupp, "ps_suppkey"},
	}
	for _, e := range fk {
		id := c.MustLookup(e[0])
		if !c.HasIndex(id, e[1]) {
			t.Errorf("%s: missing FK index on %s", e[0], e[1])
		}
	}
	if c.HasIndex(c.MustLookup(Lineitem), "l_comment") {
		t.Error("unexpected index on l_comment")
	}
}

func TestPages(t *testing.T) {
	c := TPCH(1)
	li := c.Table(c.MustLookup(Lineitem))
	wantPages := li.Rows * float64(li.Width) / PageSize
	if got := li.Pages(); math.Abs(got-wantPages) > 1e-9 {
		t.Errorf("lineitem pages = %v, want %v", got, wantPages)
	}
	// Tiny tables still occupy at least one page.
	tiny := New()
	id := tiny.AddTable("t", 1, 8, "c")
	if got := tiny.Table(id).Pages(); got != 1 {
		t.Errorf("tiny table pages = %v, want 1", got)
	}
}

func TestIndexesSorted(t *testing.T) {
	c := TPCH(1)
	li := c.MustLookup(Lineitem)
	idx := c.Indexes(li)
	if len(idx) < 3 {
		t.Fatalf("lineitem should have several indexes, got %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i-1].Column >= idx[i].Column {
			t.Errorf("indexes not sorted: %s >= %s", idx[i-1].Column, idx[i].Column)
		}
	}
	for id := TableID(0); int(id) < c.NumTables(); id++ {
		if n, want := c.NumIndexes(id), len(c.Indexes(id)); n != want {
			t.Errorf("table %d: NumIndexes %d, Indexes lists %d", id, n, want)
		}
	}
}

func TestLookupMissing(t *testing.T) {
	c := TPCH(1)
	if _, ok := c.Lookup("nonexistent"); ok {
		t.Error("Lookup(nonexistent) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup(nonexistent) did not panic")
		}
	}()
	c.MustLookup("nonexistent")
}

func TestAddTableValidation(t *testing.T) {
	c := New()
	c.AddTable("a", 10, 8, "pk")
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { c.AddTable("a", 10, 8, "pk") })
	mustPanic("negative rows", func() { c.AddTable("b", -1, 8, "pk") })
	mustPanic("zero width", func() { c.AddTable("c", 10, 0, "pk") })
	mustPanic("bad scale factor", func() { TPCH(0) })
	mustPanic("index unknown table", func() { c.AddIndex(TableID(99), "x", false) })
	mustPanic("unknown table id", func() { c.Table(TableID(99)) })
}

// TestFingerprint: equal contents hash equally; any statistics or index
// change yields a new version.
func TestFingerprint(t *testing.T) {
	if TPCH(1).Fingerprint() != TPCH(1).Fingerprint() {
		t.Fatal("identical catalogs got different fingerprints")
	}
	base := TPCH(1).Fingerprint()
	if TPCH(2).Fingerprint() == base {
		t.Fatal("different scale factors share a fingerprint")
	}
	c := TPCH(1)
	c.AddIndex(c.MustLookup(Orders), "o_orderdate", false)
	if c.Fingerprint() == base {
		t.Fatal("adding an index did not change the fingerprint")
	}
	c2 := TPCH(1)
	c2.AddTable("extra", 42, 16, "e_id")
	if c2.Fingerprint() == base {
		t.Fatal("adding a table did not change the fingerprint")
	}
}

// TestFingerprintInjection: table names are user-controlled in the moqod
// service, so a name embedding the encoding's delimiters must not make
// two different catalogs hash identically (length-prefixing prevents it).
func TestFingerprintInjection(t *testing.T) {
	honest := New()
	honest.AddTable("a", 1, 4, "p")
	honest.AddTable("b", 2, 4, "")

	forged := New()
	forged.AddTable("a|1|4|p;i|p|true;t|b", 2, 4, "")

	if honest.Fingerprint() == forged.Fingerprint() {
		t.Fatal("delimiter-injecting table name forged another catalog's fingerprint")
	}
}

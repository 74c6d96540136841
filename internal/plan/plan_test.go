package plan

import (
	"strings"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/query"
)

func testQuery(t testing.TB) *query.Query {
	t.Helper()
	cat := catalog.TPCH(1)
	q := query.New("plan_test", cat)
	c := q.AddRelation(catalog.Customer, "c", 1)
	o := q.AddRelation(catalog.Orders, "o", 1)
	l := q.AddRelation(catalog.Lineitem, "l", 1)
	q.AddFKJoin(o, "o_custkey", c, "c_custkey")
	q.AddFKJoin(l, "l_orderkey", o, "o_orderkey")
	return q
}

func scan(rel int, alg ScanAlg) *Node {
	return &Node{Tables: query.Singleton(rel), Scan: alg, Relation: rel}
}

func join(alg JoinAlg, dop int, l, r *Node) *Node {
	return &Node{
		Tables: l.Tables.Union(r.Tables),
		Join:   alg, Left: l, Right: r, DOP: dop,
	}
}

func TestOperatorLabels(t *testing.T) {
	cases := []struct {
		n    *Node
		want string
	}{
		{scan(0, SeqScan), "SeqScan"},
		{scan(0, IndexScan), "IdxScan"},
		{&Node{Tables: query.Singleton(0), Scan: SampleScan, SampleRate: 0.03}, "SampleScan(3%)"},
		{join(HashJoin, 1, scan(0, SeqScan), scan(1, SeqScan)), "HashJ"},
		{join(HashJoin, 2, scan(0, SeqScan), scan(1, SeqScan)), "HashJ(dop=2)"},
		{join(SortMergeJoin, 4, scan(0, SeqScan), scan(1, SeqScan)), "SMJ(dop=4)"},
		{join(IndexNLJoin, 1, scan(0, SeqScan), scan(1, IndexScan)), "IdxNL"},
		{join(BlockNLJoin, 1, scan(0, SeqScan), scan(1, SeqScan)), "BNL"},
	}
	for _, c := range cases {
		if got := c.n.OperatorLabel(); got != c.want {
			t.Errorf("OperatorLabel = %q, want %q", got, c.want)
		}
	}
}

func TestAlgStringsUnknown(t *testing.T) {
	if ScanAlg(99).String() != "ScanAlg(99)" {
		t.Error("unknown scan alg String")
	}
	if JoinAlg(99).String() != "JoinAlg(99)" {
		t.Error("unknown join alg String")
	}
}

func TestTreeShapeAccessors(t *testing.T) {
	c, o, l := scan(0, SeqScan), scan(1, SeqScan), scan(2, IndexScan)
	co := join(HashJoin, 1, c, o)
	full := join(HashJoin, 1, co, l)

	if !c.IsScan() || full.IsScan() {
		t.Error("IsScan wrong")
	}
	if got := full.NumOperators(); got != 5 {
		t.Errorf("NumOperators = %d, want 5", got)
	}
	if got := full.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	scans := full.Scans()
	if len(scans) != 3 || scans[0] != c || scans[1] != o || scans[2] != l {
		t.Errorf("Scans order wrong: %v", scans)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	q := testQuery(t)
	p := join(HashJoin, 2, join(SortMergeJoin, 1, scan(0, SeqScan), scan(1, SeqScan)), scan(2, IndexScan))
	if err := p.Validate(q); err != nil {
		t.Errorf("well-formed plan rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	q := testQuery(t)
	cases := map[string]*Node{
		"overlapping operands": {
			Tables: query.NewTableSet(0, 1),
			Join:   HashJoin, DOP: 1,
			Left:  scan(0, SeqScan),
			Right: scan(0, SeqScan),
		},
		"wrong union": {
			Tables: query.NewTableSet(0, 1, 2),
			Join:   HashJoin, DOP: 1,
			Left:  scan(0, SeqScan),
			Right: scan(1, SeqScan),
		},
		"dop too high": func() *Node {
			n := join(HashJoin, MaxDOP+1, scan(0, SeqScan), scan(1, SeqScan))
			return n
		}(),
		"dop zero":         join(HashJoin, 0, scan(0, SeqScan), scan(1, SeqScan)),
		"parallel idxnl":   join(IndexNLJoin, 2, scan(0, SeqScan), scan(1, IndexScan)),
		"unknown relation": scan(17, SeqScan),
		"scan set mismatch": {
			Tables: query.NewTableSet(0, 1), Scan: SeqScan, Relation: 0,
		},
		"bad sample rate": {
			Tables: query.Singleton(0), Scan: SampleScan, Relation: 0, SampleRate: 0.5,
		},
		"negative cost": func() *Node {
			n := scan(0, SeqScan)
			n.Cost = objective.Vector{}.With(objective.TotalTime, -1)
			return n
		}(),
		"join single child": {
			Tables: query.NewTableSet(0, 1), Join: HashJoin, DOP: 1,
			Left: scan(0, SeqScan),
		},
	}
	for name, p := range cases {
		if err := p.Validate(q); err == nil {
			t.Errorf("%s: Validate accepted malformed plan", name)
		}
	}
}

func TestFormatAndSignature(t *testing.T) {
	q := testQuery(t)
	p := join(HashJoin, 1, join(IndexNLJoin, 1, scan(1, SeqScan), scan(0, IndexScan)), scan(2, SeqScan))
	sig := p.Signature(q)
	want := "HashJ(IdxNL(SeqScan o, IdxScan c), SeqScan l)"
	if sig != want {
		t.Errorf("Signature = %q, want %q", sig, want)
	}
	f := p.Format(q)
	for _, frag := range []string{"HashJ\n", "  IdxNL\n", "    SeqScan o\n", "  SeqScan l\n"} {
		if !strings.Contains(f, frag) {
			t.Errorf("Format missing %q:\n%s", frag, f)
		}
	}
}

func TestSampleRates(t *testing.T) {
	if len(SampleRates) != 5 {
		t.Fatalf("want 5 sample rates (1%%..5%%), got %d", len(SampleRates))
	}
	if SampleRates[0] != 0.01 || SampleRates[4] != 0.05 {
		t.Errorf("sample rate range wrong: %v", SampleRates)
	}
	if MaxDOP != 4 {
		t.Errorf("MaxDOP = %d, want 4 (paper: up to 4 cores per operation)", MaxDOP)
	}
}

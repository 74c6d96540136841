package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"moqo/internal/objective"
	"moqo/internal/query"
)

// Description is the reflection-based form of a plan's JSON, kept as the
// oracle of the renderer: Node.JSON must write json.Marshal(n.Describe(q,
// objs)) byte for byte, and fail exactly when it fails.
type Description struct {
	Operator string             `json:"operator"`
	Relation string             `json:"relation,omitempty"`
	Sample   float64            `json:"sample_rate,omitempty"`
	DOP      int                `json:"dop,omitempty"`
	Rows     float64            `json:"rows"`
	Cost     map[string]float64 `json:"cost"`
	Children []*Description     `json:"children,omitempty"`
}

// Describe builds the plan's Description, its operator labels written by
// fmt as they were before the one label writer.
func (n *Node) Describe(q *query.Query, objs objective.Set) *Description {
	d := &Description{
		Operator: oracleLabel(n),
		Rows:     q.EstimateRows(n.Tables),
		Cost:     make(map[string]float64, objs.Len()),
	}
	for _, o := range objs.IDs() {
		d.Cost[o.String()] = n.Cost[o]
	}
	if n.IsScan() {
		d.Relation = q.Relations[n.Relation].Alias
		if n.Scan == SampleScan {
			d.Sample = n.SampleRate
		}
		return d
	}
	if n.DOP > 1 {
		d.DOP = n.DOP
	}
	d.Children = []*Description{
		n.Left.Describe(q, objs),
		n.Right.Describe(q, objs),
	}
	return d
}

func oracleLabel(n *Node) string {
	if n.IsScan() {
		if n.Scan == SampleScan {
			return fmt.Sprintf("%s(%.0f%%)", n.Scan, n.SampleRate*100)
		}
		return n.Scan.String()
	}
	if n.DOP > 1 {
		return fmt.Sprintf("%s(dop=%d)", n.Join, n.DOP)
	}
	return n.Join.String()
}

// oracleExplain is Explain as fmt wrote it.
func oracleExplain(n *Node, q *query.Query, objs objective.Set, b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.IsScan() {
		fmt.Fprintf(b, "%s %s", oracleLabel(n), q.Relations[n.Relation].Alias)
	} else {
		b.WriteString(oracleLabel(n))
	}
	fmt.Fprintf(b, "  (rows=%.4g)", q.EstimateRows(n.Tables))
	fmt.Fprintf(b, " %s\n", n.Cost.FormatOn(objs))
	if !n.IsScan() {
		oracleExplain(n.Left, q, objs, b, depth+1)
		oracleExplain(n.Right, q, objs, b, depth+1)
	}
}

// checkAgainstOracle fails t unless p's rendering is the oracle's bytes, or
// both fail with the same error, and unless Explain writes what fmt wrote.
func checkAgainstOracle(t *testing.T, p *Node, q *query.Query, objs objective.Set) {
	t.Helper()
	var explain strings.Builder
	oracleExplain(p, q, objs, &explain, 0)
	if got := p.Explain(q, objs); got != explain.String() {
		t.Fatalf("Explain differs from the oracle\n got: %q\nwant: %q", got, explain.String())
	}
	got, err := p.JSON(q, objs)
	want, werr := json.Marshal(p.Describe(q, objs))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("JSON error = %v, oracle error = %v\n got: %s\nwant: %s", err, werr, got, want)
	case err != nil && err.Error() != werr.Error():
		t.Fatalf("JSON error = %q, oracle error = %q", err, werr)
	case !bytes.Equal(got, want):
		t.Fatalf("JSON differs from the oracle\n got: %s\nwant: %s", got, want)
	}
}

var describeObjs = objective.NewSet(objective.TotalTime, objective.TupleLoss)

func describedPlan(t testing.TB) (*Node, *query.Query) {
	t.Helper()
	q := testQuery(t)
	sample := &Node{Tables: query.Singleton(2), Scan: SampleScan, Relation: 2, SampleRate: 0.03}
	sample.Cost = objective.Vector{}.With(objective.TupleLoss, 0.97)
	inner := join(HashJoin, 2, scan(0, SeqScan), scan(1, IndexScan))
	inner.Cost = objective.Vector{}.With(objective.TotalTime, 40)
	root := join(SortMergeJoin, 1, inner, sample)
	root.Cost = objective.Vector{}.With(objective.TotalTime, 123.5).With(objective.TupleLoss, 0.97)
	return root, q
}

func TestDescribe(t *testing.T) {
	p, q := describedPlan(t)
	d := p.Describe(q, describeObjs)
	if d.Operator != "SMJ" {
		t.Errorf("root operator = %q", d.Operator)
	}
	if d.Cost["total_time"] != 123.5 || d.Cost["tuple_loss"] != 0.97 {
		t.Errorf("root cost map wrong: %v", d.Cost)
	}
	if _, present := d.Cost["energy"]; present {
		t.Error("inactive objective leaked into cost map")
	}
	if len(d.Children) != 2 {
		t.Fatalf("root children = %d", len(d.Children))
	}
	hash := d.Children[0]
	if hash.Operator != "HashJ(dop=2)" || hash.DOP != 2 {
		t.Errorf("hash child = %+v", hash)
	}
	smp := d.Children[1]
	if smp.Relation != "l" || smp.Sample != 0.03 {
		t.Errorf("sample child = %+v", smp)
	}
	if d.Rows <= 0 || smp.Rows <= 0 {
		t.Error("estimated rows missing")
	}
	for _, objs := range []objective.Set{describeObjs, objective.AllSet(), 0} {
		checkAgainstOracle(t, p, q, objs)
	}
}

func TestJSONRoundTrips(t *testing.T) {
	p, q := describedPlan(t)
	raw, err := p.JSON(q, describeObjs)
	if err != nil {
		t.Fatal(err)
	}
	var back Description
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Operator != "SMJ" || len(back.Children) != 2 {
		t.Errorf("round trip lost structure: %+v", back)
	}
	if !strings.Contains(string(raw), `"sample_rate":0.03`) {
		t.Errorf("JSON missing sample rate:\n%s", raw)
	}
}

func TestExplain(t *testing.T) {
	p, q := describedPlan(t)
	out := p.Explain(q, describeObjs)
	for _, want := range []string{"SMJ", "HashJ(dop=2)", "SampleScan(3%)", "rows=", "total_time=123.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Children indented below parents.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "  ") {
		t.Error("child not indented")
	}
	checkAgainstOracle(t, p, q, describeObjs)
}

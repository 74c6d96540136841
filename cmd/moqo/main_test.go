package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"testing"
	"time"

	"moqo"
)

func TestParsePairs(t *testing.T) {
	got, err := parsePairs("total_time=1, energy=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if got[moqo.TotalTime] != 1 || got[moqo.Energy] != 0.5 {
		t.Errorf("parsePairs = %v", got)
	}
	if len(got) != 2 {
		t.Errorf("parsePairs produced %d entries", len(got))
	}
	empty, err := parsePairs("")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty pairs = %v, %v", empty, err)
	}
	for _, bad := range []string{"total_time", "nope=1", "total_time=abc"} {
		if _, err := parsePairs(bad); err == nil {
			t.Errorf("parsePairs(%q) accepted", bad)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("splitList = %v", got)
	}
	if splitList("  ") != nil {
		t.Error("blank list should be nil")
	}
}

func TestIndent(t *testing.T) {
	if got := indent("x\ny\n"); got != "  x\n  y\n" {
		t.Errorf("indent = %q", got)
	}
}

// TestAlgName: the header names the algorithm Resolve picked, marked as the
// default when the request named none — an all-+Inf bound vector is
// unbounded, so it runs RTA — and an explicit one as-is (the zero value of
// Algorithm is AlgoAuto, not AlgoEXA).
func TestAlgName(t *testing.T) {
	q, err := moqo.TPCHQuery(3, moqo.TPCHCatalog(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alg    moqo.Algorithm
		bounds map[moqo.Objective]float64
		want   string
	}{
		{moqo.AlgoAuto, nil, "rta (default)"},
		{moqo.AlgoAuto, map[moqo.Objective]float64{moqo.TotalTime: 1}, "ira (default)"},
		{moqo.AlgoAuto, map[moqo.Objective]float64{moqo.TotalTime: math.Inf(1)}, "rta (default)"},
		{moqo.AlgoEXA, nil, "exa"},
	} {
		req := moqo.Request{Query: q, Algorithm: tc.alg, Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy}, Bounds: tc.bounds}
		r, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if got := algName(req.Algorithm, r.Algorithm()); got != tc.want {
			t.Errorf("algName(%v, bounds %v) = %q, want %q", tc.alg, tc.bounds, got, tc.want)
		}
	}
}

// TestPlanJSONOutput pins -json to the bytes the CLI printed when the
// library rendered indented JSON itself: testdata/q5.json is the output of
//
//	moqo -query 5 -json -workers 1 -alpha 1.5 \
//	     -objectives total_time,energy,tuple_loss,cores -weights total_time=1,energy=0.5
func TestPlanJSONOutput(t *testing.T) {
	q, err := moqo.TPCHQuery(5, moqo.TPCHCatalog(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := moqo.OptimizeContext(ctx, moqo.Request{
		Query:      q,
		Alpha:      1.5,
		Workers:    1,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.Energy, moqo.TupleLoss, moqo.Cores},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := planJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/q5.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := append(out, '\n'); !bytes.Equal(got, want) {
		t.Errorf("-json output differs from testdata/q5.json:\n%s", got)
	}
}

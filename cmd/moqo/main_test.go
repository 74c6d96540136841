package main

import (
	"bytes"
	"os"
	"testing"
	"time"

	"moqo"
)

func TestParseObjective(t *testing.T) {
	o, err := parseObjective("total_time")
	if err != nil || o != moqo.TotalTime {
		t.Errorf("parseObjective(total_time) = %v, %v", o, err)
	}
	if _, err := parseObjective("nope"); err == nil {
		t.Error("unknown objective accepted")
	}
}

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

func TestAlgName(t *testing.T) {
	if got := algName(moqo.Request{}); got != "rta (default)" {
		t.Errorf("algName = %q", got)
	}
	if got := algName(moqo.Request{Bounds: map[moqo.Objective]float64{moqo.TotalTime: 1}}); got != "ira (default for bounded requests)" {
		t.Errorf("algName bounded = %q", got)
	}
	// An explicit algorithm is honored as-is — the zero value of Algorithm
	// is AlgoAuto, not AlgoEXA.
	if got := algName(moqo.Request{Algorithm: moqo.AlgoEXA}); got != "exa" {
		t.Errorf("algName explicit = %q", got)
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
	res, err := moqo.Optimize(moqo.Request{
		Query:      q,
		Alpha:      1.5,
		Timeout:    30 * time.Second,
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

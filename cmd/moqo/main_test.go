package main

import (
	"testing"

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

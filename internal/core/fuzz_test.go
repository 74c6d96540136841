package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/plan"
)

// corpusDir holds the committed seed corpus of valid marshaled snapshots
// for FuzzFrontierSnapshotUnmarshal. Regenerate with
//
//	MOQO_REGEN_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/core
//
// after a format version bump (the fuzzer needs valid current-version
// seeds to mutate its way past the magic/version checks).
const corpusDir = "testdata/snapshots"

// corpusSnapshots produces one snapshot per algorithm family that returns
// one: exact (EXA), uniform-α (RTA), per-objective precision
// (RTAVector), and iterative refinement (IRA), over three objectives; and
// one over all nine. Each holds several sub-memo sections and
// index-nested-loop joins, whose index-probe inners are not stored plans.
func corpusSnapshots(t testing.TB) map[string]*FrontierSnapshot {
	t.Helper()
	w := objective.UniformWeights(threeObjs)
	out := map[string]*FrontierSnapshot{}
	capture := func(name string, res Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Snapshot == nil {
			t.Fatalf("%s: no snapshot returned", name)
		}
		out[name] = res.Snapshot
	}

	res, err := EXA(costmodel.NewDefault(starQuery(t)), w, objective.NoBounds(), smallOpts(threeObjs))
	capture("exa-star", res, err)

	rtaOpts := smallOpts(threeObjs)
	rtaOpts.Alpha = 1.5
	res, err = RTA(costmodel.NewDefault(chainQuery(t)), w, rtaOpts)
	capture("rta-chain", res, err)

	prec := objective.UniformPrecision(2, threeObjs).With(objective.TotalTime, 1.2)
	res, err = RTAVector(costmodel.NewDefault(starQuery(t)), w, prec, smallOpts(threeObjs))
	capture("rtavector-star", res, err)

	iraOpts := smallOpts(threeObjs)
	iraOpts.Alpha = 1.5
	res, err = IRA(costmodel.NewDefault(chainQuery(t)), w, objective.NoBounds(), iraOpts)
	capture("ira-chain", res, err)

	// Every objective: full-width cost rows in every section.
	nineOpts := smallOpts(objective.AllSet())
	nineOpts.Alpha = 2
	res, err = RTA(costmodel.NewDefault(chainQuery(t)), objective.UniformWeights(objective.AllSet()), nineOpts)
	capture("rta9-chain", res, err)

	return out
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus. Gated
// behind MOQO_REGEN_CORPUS so a normal test run never touches testdata.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("MOQO_REGEN_CORPUS") == "" {
		t.Skip("set MOQO_REGEN_CORPUS=1 to rewrite the committed corpus")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, snap := range corpusSnapshots(t) {
		data, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(corpusDir, name+".bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorpusSeedsDecode pins the committed corpus to the current format:
// every seed must decode cleanly and re-encode to the identical bytes.
// If this fails after a format change, regenerate the corpus. It also
// holds the corpus to what the fuzzer's materialization differential
// needs to start from: a nine-objective snapshot of several sections, and
// an index-nested-loop join.
func TestCorpusSeedsDecode(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("committed corpus has %d seeds; want at least 4 (one per algorithm family)", len(files))
	}
	var nine, probe bool
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := UnmarshalFrontierSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		again, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", path, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: decode/encode is not an identity", path)
		}
		nine = nine || snap.objs == objective.AllSet() && len(snap.subs) > 1
		_, probes := denseMemo{&snap.Frontier}.Size()
		probe = probe || probes > 0
	}
	if !nine || !probe {
		t.Errorf("corpus lacks a seed: nine objectives over several sections %v, an index-probe inner %v", nine, probe)
	}
}

// TestUnmarshalRejectsCraftedCorruption pins the decoder's validation
// against specific crafted inputs the fuzzer's guarantees rest on: each
// mutation of a valid encoding must come back as an error — never a
// panic, never a snapshot that would blow up during materialization.
func TestUnmarshalRejectsCraftedCorruption(t *testing.T) {
	_, snap := snapRTA(t, costmodel.NewDefault(chainQuery(t)),
		objective.UniformWeights(threeObjs), smallOpts(threeObjs))
	valid, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into the fixed prefix: magic(4) ver(2) objs(2) setAlpha(8)
	// pruneAlpha(8) precFlag(1).
	const (
		objsOff     = 6
		setAlphaOff = 8
		precFlagOff = 24
	)
	patch := func(off int, b []byte) []byte {
		out := append([]byte(nil), valid...)
		copy(out[off:], b)
		return out
	}
	nan := make([]byte, 8)
	for i := range nan {
		nan[i] = 0xff // a quiet NaN bit pattern
	}
	cases := map[string][]byte{
		"empty objective set":   patch(objsOff, []byte{0, 0}),
		"objs beyond AllSet":    patch(objsOff, []byte{0xff, 0xff}),
		"NaN set alpha":         patch(setAlphaOff, nan),
		"precision flag 2":      patch(precFlagOff, []byte{2}),
		"truncated mid-section": valid[:len(valid)-10],
		"trailing garbage":      append(append([]byte(nil), valid...), 0xAB),
	}
	for name, data := range cases {
		if _, err := UnmarshalFrontierSnapshot(data); err == nil {
			t.Errorf("%s: decode succeeded; want error", name)
		}
	}

	// Structurally corrupt snapshots (built in memory, then marshaled —
	// Marshal does not validate): out-of-range op codes and non-split
	// operand sets, each a latent materializer panic or infinite
	// recursion before validate() learned to reject them.
	reenc := func(mutate func(*FrontierSnapshot)) []byte {
		s2, err := UnmarshalFrontierSnapshot(valid)
		if err != nil {
			t.Fatal(err)
		}
		mutate(s2)
		data, err := s2.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	findScanSub := func(s *FrontierSnapshot) int {
		for i := range s.subs {
			if s.subs[i].set.Single() && len(s.subs[i].entries) > 0 {
				return i
			}
		}
		t.Fatal("no singleton sub in corpus snapshot")
		return -1
	}
	structural := map[string][]byte{
		"sample rate index out of range": reenc(func(s *FrontierSnapshot) {
			i := findScanSub(s)
			s.subs[i].entries[0].Op = int32(plan.SampleScan)<<8 | 9
		}),
		"unknown scan algorithm": reenc(func(s *FrontierSnapshot) {
			i := findScanSub(s)
			s.subs[i].entries[0].Op = 7 << 8
		}),
		"join operands not a split": reenc(func(s *FrontierSnapshot) {
			// Self-referential operand set: without the split invariant
			// this is an unbounded materializer recursion.
			s.entries[0].LeftSet = s.all
		}),
		"join DOP out of range": reenc(func(s *FrontierSnapshot) {
			s.entries[0].Op = int32(plan.HashJoin)<<8 | 200
		}),
	}
	for name, data := range structural {
		if _, err := UnmarshalFrontierSnapshot(data); err == nil {
			t.Errorf("%s: decode succeeded; want error", name)
		}
	}
}

// sameTrees fails the test unless got and want are the same plan trees:
// the same shapes and operator fields, the same cost bits, and shared
// alike. Pairing each node of got with the node of want in its place must
// be one-to-one, so a sub-plan that is one node in want — a (set, index)
// referenced twice — is one node in got, and nodes apart in want — every
// index-probe inner — are apart in got.
func sameTrees(t *testing.T, got, want []*plan.Node) {
	t.Helper()
	pair := make(map[*plan.Node]*plan.Node) // got → want
	back := make(map[*plan.Node]*plan.Node) // want → got
	var same func(g, w *plan.Node) bool
	same = func(g, w *plan.Node) bool {
		if g == nil || w == nil {
			return g == w
		}
		if p, ok := pair[g]; ok {
			return p == w
		}
		if _, ok := back[w]; ok {
			return false
		}
		pair[g], back[w] = w, g
		if g.Tables != w.Tables || g.Scan != w.Scan || g.Relation != w.Relation || g.Join != w.Join || g.DOP != w.DOP ||
			math.Float64bits(g.SampleRate) != math.Float64bits(w.SampleRate) {
			return false
		}
		for o := range g.Cost {
			if math.Float64bits(g.Cost[o]) != math.Float64bits(w.Cost[o]) {
				return false
			}
		}
		return same(g.Left, w.Left) && same(g.Right, w.Right)
	}
	if len(got) != len(want) {
		t.Fatalf("%d plans, want %d", len(got), len(want))
	}
	for i := range got {
		if !same(got[i], want[i]) {
			t.Fatalf("plan %d: the dense materialization differs from the map-cached oracle's", i)
		}
	}
}

// FuzzFrontierSnapshotUnmarshal hammers the snapshot decoder with corrupt
// inputs. The contract under test: decode either returns an error or a
// snapshot every downstream consumer can use safely — no panics, no
// unbounded allocation from corrupt counts, no reference cycles that
// would hang plan materialization, and Marshal∘Unmarshal as the identity
// on whatever decodes successfully. Every snapshot that decodes also
// materializes, through its dense memo, the trees the map-cached oracle
// builds over the same rows (sameTrees).
func FuzzFrontierSnapshotUnmarshal(f *testing.F) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no seed corpus under " + corpusDir)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := UnmarshalFrontierSnapshot(data)
		if err != nil {
			return
		}
		// A successful decode must yield a fully servable snapshot.
		again, err := snap.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of decoded snapshot failed: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatal("Marshal(Unmarshal(data)) != data for a successful decode")
		}
		plans := snap.Plans()
		if len(plans) != snap.Len() {
			t.Fatalf("materialized %d plans; snapshot reports %d", len(plans), snap.Len())
		}
		for i := range plans {
			if plans[i] == nil {
				t.Fatalf("plan %d materialized to nil", i)
			}
			snap.CostAt(int32(i))
		}
		// Differential: the snapshot materializes through its dense memo,
		// the oracle through a map over the same rows.
		sameTrees(t, plans, oraclePlans(frontierOracle{&snap.Frontier}, snap.all, snap.Len()))
		w := objective.UniformWeights(snap.Objectives())
		if best := snap.SelectBest(w, objective.NoBounds()); best < 0 || int(best) >= snap.Len() {
			t.Fatalf("SelectBest returned out-of-range index %d", best)
		}
	})
}

package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// enginePin is what one run must reproduce exactly: the candidate and
// split counters, a digest over the IEEE bits of every frontier cost
// vector in canonical order, and — summed over the archives of the run's
// memo (IRA: its last iteration's) — how many candidates were rejected and
// how many of those without a scan (by the hint, the split's slot, or the gate
// on either). The first is what a shortcut in front of the scans must leave
// alone: one that rejected a candidate the scan would have kept moves it. The
// second is telemetry of the shortcuts themselves: it moves when one of them
// answers more or fewer candidates, and must not depend on the schedule.
type enginePin struct {
	considered, stored, enumSets, enumSplits int
	frontier                                 int
	bits                                     uint64
	rejected, hintRejected                   int
}

func (p enginePin) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %#x, %d, %d}", p.considered, p.stored, p.enumSets, p.enumSplits,
		p.frontier, p.bits, p.rejected, p.hintRejected)
}

func frontierBits(a *Frontier) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range a.Plans() {
		for _, x := range p.Cost {
			b := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// pinRun runs one instance and pins it. The rejection sums are read from
// the run's memo just before its frontier is extracted.
func pinRun(run func() (Result, error)) (enginePin, Result, error) {
	rejected, hintRejected := 0, 0
	beforeExtract = func(e *engine, _ *pareto.FlatArchive) {
		for _, a := range e.memo.archives {
			if a != nil {
				_, rej, _ := a.Stats()
				rejected += rej
				hintRejected += a.HintRejected()
			}
		}
	}
	defer func() { beforeExtract = nil }()
	res, err := run()
	if err != nil {
		return enginePin{}, res, err
	}
	return enginePin{
		considered:   res.Stats.Considered,
		stored:       res.Stats.Stored,
		enumSets:     res.Stats.EnumSets,
		enumSplits:   res.Stats.EnumSplits,
		frontier:     res.Frontier.Len(),
		bits:         frontierBits(res.Frontier),
		rejected:     rejected,
		hintRejected: hintRejected,
	}, res, nil
}

// TestEngineInvariantsPinned pins the engine's observable work — how many
// candidates it costed, how many plans it stored, how many sets and splits
// it enumerated, and every bit of the resulting frontier — to the values
// of the commit before join costing was split into prepare and apply. The
// candidate loops are where that split lives; a loop that dropped,
// duplicated or reordered a candidate would move a counter or (through
// insertion-order-dependent approximate pruning) a frontier bit here. The
// rejection sums were added with the floor gate in front of InsertRow, at
// the values of the commit before it. The last column, Σ hintRejected, was
// re-taken — it and nothing else in this table — when the scans started at the
// hint, the second hint per inner sub-plan and operator arrived and the gate
// began asking both rows: more candidates are answered without a scan, the same
// ones are rejected.
//
// Each instance runs with one and four workers (the pins do not depend on
// the worker count), and degraded. The degraded run uses a 1 ns budget on
// one worker: the deadline has passed before the first poll, so the run
// degrades at exactly the 1024th candidate — a 1 ms budget would degrade
// wherever the clock happened to stand.
func TestEngineInvariantsPinned(t *testing.T) {
	cat := catalog.TPCH(1)
	all := objective.AllSet()
	two := objective.NewSet(objective.TotalTime, objective.Energy)
	three := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.TupleLoss)

	q10 := costmodel.NewDefault(workload.MustQuery(10, cat))
	minima, err := ObjectiveMinima(q10, Options{Objectives: all})
	if err != nil {
		t.Fatal(err)
	}
	q10Bounds := objective.NoBounds().With(objective.TotalTime, minima[objective.TotalTime]*3)

	type variant struct {
		name    string
		timeout time.Duration
		workers []int
	}
	variants := []variant{
		{name: "auto", workers: []int{1, 4}},
		{name: "degraded", timeout: time.Nanosecond, workers: []int{1}},
	}
	cases := []struct {
		name string
		run  func(Options) (Result, error)
		want map[string]enginePin
	}{
		{
			name: "chain-8/EXA/2obj",
			run: func(o Options) (Result, error) {
				_, q := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 8, Seed: 7})
				o.Objectives = two
				return EXA(costmodel.NewDefault(q), objective.UniformWeights(two), objective.NoBounds(), o)
			},
			want: map[string]enginePin{
				"auto":     {1832783, 3420, 36, 308, 341, 0xcfd520273ce2ad77, 1825376, 1813949},
				"degraded": {2872, 110, 36, 308, 1, 0xb8fb99336cd4ed99, 875, 830},
			},
		},
		{
			name: "tpch-q5/RTA1.5/3obj",
			run: func(o Options) (Result, error) {
				o.Objectives, o.Alpha = three, 1.5
				return RTA(costmodel.NewDefault(workload.MustQuery(5, cat)), objective.UniformWeights(three), o)
			},
			want: map[string]enginePin{
				"auto":     {84073, 381, 33, 338, 28, 0xdd71b4b83bbd58da, 82905, 78918},
				"degraded": {2911, 77, 33, 337, 1, 0x40da87e042ba87b7, 896, 808},
			},
		},
		{
			name: "tpch-q10/IRA1.5/9obj",
			run: func(o Options) (Result, error) {
				o.Objectives, o.Alpha = all, 1.5
				return IRA(q10, objective.UniformWeights(all), q10Bounds, o)
			},
			want: map[string]enginePin{
				"auto":     {187956, 983, 30, 96, 468, 0x4e07af44dbff7fde, 63317, 56726},
				"degraded": {1172, 175, 10, 27, 1, 0xd9017284fae37d7f, 821, 638},
			},
		},
	}
	for _, c := range cases {
		for _, v := range variants {
			for _, workers := range v.workers {
				got, res, err := pinRun(func() (Result, error) { return c.run(Options{Timeout: v.timeout, Workers: workers}) })
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", c.name, v.name, workers, err)
				}
				if want := c.want[v.name]; got != want {
					t.Errorf("%s/%s/w%d:\n got  %v\n want %v", c.name, v.name, workers, got, want)
				}
				if v.timeout > 0 && !res.Stats.TimedOut {
					t.Errorf("%s/%s: run did not degrade", c.name, v.name)
				}
			}
		}
	}
}

// TestCorpusRegeneratesIdentically: the runs behind the committed snapshot
// corpus (testdata/snapshots) still produce the committed bytes — memo
// entries, cost rows, counters and all. The one field that cannot repeat
// is the embedded wall-clock Stats.Duration, zeroed on both sides.
func TestCorpusRegeneratesIdentically(t *testing.T) {
	for name, snap := range corpusSnapshots(t) {
		data, err := os.ReadFile(filepath.Join(corpusDir, name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		committed, err := UnmarshalFrontierSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		committed.stats.Duration, snap.stats.Duration = 0, 0
		want, err := committed.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: regenerated snapshot differs from the committed corpus file", name)
		}
	}
}

// TestHintShare pins what FlatArchive's last-rejector hints are worth on the
// engine's own candidate streams, so that a change to the candidate loops or
// to InsertRowNear cannot quietly turn them off: on three of the scoreboard's
// RTA instances at least three quarters of all candidates must be answered
// without a scan (measured: 84.9 %, 95.6 % and 87.9 %; 76.4 %, 89.3 % and
// 78.1 % by the archive's own hint alone; TestScanShare holds the rest). Each
// table set's archive sees its candidates in one order whatever the
// schedule, so the count is also identical across worker counts.
func TestHintShare(t *testing.T) {
	cat := catalog.TPCH(1)
	cases := []struct {
		name  string
		query int
		objs  objective.Set
	}{
		{"tpch-q5/RTA1.5/3obj", 5, objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)},
		{"tpch-q7/RTA1.5/6obj", 7, objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
			objective.CPULoad, objective.BufferFootprint, objective.Energy)},
		{"tpch-q10/RTA1.5/9obj", 10, objective.AllSet()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := costmodel.NewDefault(workload.MustQuery(tc.query, cat))
			hinted := func(workers int) (hits, considered int) {
				opts, err := Options{Objectives: tc.objs, Alpha: 1.5, Workers: workers}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				_, e := rtaParetoPlans(context.Background(), m, objective.UniformWeights(tc.objs), opts, opts.Alpha)
				for _, a := range e.memo.archives {
					if a != nil {
						hits += a.HintRejected()
					}
				}
				return hits, e.stats(start).Considered
			}
			hits, considered := hinted(1)
			if h4, c4 := hinted(4); h4 != hits || c4 != considered {
				t.Errorf("workers=4: %d hint rejections of %d candidates, workers=1: %d of %d", h4, c4, hits, considered)
			}
			share := float64(hits) / float64(considered)
			t.Logf("hint answered %d of %d candidates (%.1f %%)", hits, considered, 100*share)
			if share < 0.75 {
				t.Errorf("hint share %.3f, want >= 0.75", share)
			}
		})
	}
}

// TestFloorShare pins what the group gate in front of the archives is worth
// (worker.joinPairs): the share of all candidates that were rejected as a
// whole DOP group on the floor of their operator's terms and never costed.
// On the scoreboard's twelve-table chain — most of a cold_w1 round — that
// must be nineteen candidates in twenty (measured: 98.7 %), on two of its
// TPC-H instances two thirds and three fifths (75.9 %, 70.0 %; 46.8 % and
// 34.5 % while the gate asked the hinted row alone). A change to the
// candidate loops, to MinTerms, to the hint or to the slots that quietly
// turned the gate off, or back to one row, would still pass every bit-identity
// test; it fails here. Whether
// a group is gated depends on its table set's archive alone, so the count is
// identical across worker counts.
func TestFloorShare(t *testing.T) {
	cat := catalog.TPCH(1)
	three := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	_, chain12 := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 12, Seed: 7})
	cases := []struct {
		name string
		m    *costmodel.Model
		objs objective.Set
		want float64
	}{
		{"chain-12/RTA1.5/3obj", costmodel.NewDefault(chain12), three, 0.95},
		{"tpch-q5/RTA1.5/3obj", costmodel.NewDefault(workload.MustQuery(5, cat)), three, 0.65},
		{"tpch-q10/RTA1.5/9obj", costmodel.NewDefault(workload.MustQuery(10, cat)), objective.AllSet(), 0.60},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			floored := func(workers int) (uncosted, considered int) {
				opts, err := Options{Objectives: tc.objs, Alpha: 1.5, Workers: workers}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				_, e := rtaParetoPlans(context.Background(), tc.m, objective.UniformWeights(tc.objs), opts, opts.Alpha)
				for i := range e.workers {
					uncosted += e.workers[i].floorRejected
				}
				return uncosted, e.stats(start).Considered
			}
			uncosted, considered := floored(1)
			if u4, c4 := floored(4); u4 != uncosted || c4 != considered {
				t.Errorf("workers=4: %d of %d candidates rejected uncosted, workers=1: %d of %d", u4, c4, uncosted, considered)
			}
			share := float64(uncosted) / float64(considered)
			t.Logf("%d of %d candidates rejected uncosted (%.1f %%)", uncosted, considered, 100*share)
			if share < tc.want {
				t.Errorf("floor share %.3f, want >= %.2f", share, tc.want)
			}
		})
	}
}

// TestScanShare pins the other side of TestHintShare and TestFloorShare: the
// share of all candidates that still run a dominance scan — the rejected ones
// no hint answered, and the stored ones — on three of the scoreboard's RTA
// instances (measured: 15.1 %, 4.4 % and 12.1 %; 23.6 %, 10.7 % and 21.9 %
// before the split's slots). A change that quietly dropped the slot, stopped
// zeroing or keying it, or sent the gate back to one row would pass every
// bit-identity test and fail here, not just on a benchmark. A slot holds what
// its own split left there and nothing else, so the count is identical across
// worker counts.
func TestScanShare(t *testing.T) {
	cat := catalog.TPCH(1)
	cases := []struct {
		name  string
		query int
		objs  objective.Set
		want  float64
	}{
		{"tpch-q5/RTA1.5/3obj", 5, objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy), 0.18},
		{"tpch-q7/RTA1.5/6obj", 7, objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
			objective.CPULoad, objective.BufferFootprint, objective.Energy), 0.06},
		{"tpch-q10/RTA1.5/9obj", 10, objective.AllSet(), 0.15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := costmodel.NewDefault(workload.MustQuery(tc.query, cat))
			scanned := func(workers int) (scans, considered int) {
				opts, err := Options{Objectives: tc.objs, Alpha: 1.5, Workers: workers}.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				_, e := rtaParetoPlans(context.Background(), m, objective.UniformWeights(tc.objs), opts, opts.Alpha)
				for _, a := range e.memo.archives {
					if a != nil {
						inserted, rejected, _ := a.Stats()
						scans += rejected - a.HintRejected() + inserted
					}
				}
				return scans, e.stats(start).Considered
			}
			scans, considered := scanned(1)
			if s4, c4 := scanned(4); s4 != scans || c4 != considered {
				t.Errorf("workers=4: %d scans for %d candidates, workers=1: %d for %d", s4, c4, scans, considered)
			}
			share := float64(scans) / float64(considered)
			t.Logf("%d of %d candidates scanned (%.1f %%)", scans, considered, 100*share)
			if share > tc.want {
				t.Errorf("scan share %.3f, want <= %.2f", share, tc.want)
			}
		})
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/workload"
)

// snapRTA runs RTA and returns its result and snapshot.
func snapRTA(t *testing.T, m *costmodel.Model, w objective.Weights, opts Options) (Result, *FrontierSnapshot) {
	t.Helper()
	res, err := RTA(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot == nil {
		t.Fatal("RTA returned no snapshot")
	}
	return res, res.Snapshot
}

// routeAlgorithms are the frontier-extracting algorithms of the route
// matrix. reweightable marks those whose frontier does not depend on the
// weights and bounds of the run (IRA's does: they steer where its
// refinement loop stops), so a snapshot captured under one preference
// must answer any other exactly like a cold run.
var routeAlgorithms = []struct {
	name         string
	bounded      bool
	reweightable bool
	run          func(m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error)
}{
	{"EXA", true, true, EXA},
	{"RTA", false, true, func(m *costmodel.Model, w objective.Weights, _ objective.Bounds, opts Options) (Result, error) {
		return RTA(m, w, opts)
	}},
	{"RTA per objective", false, true, func(m *costmodel.Model, w objective.Weights, _ objective.Bounds, opts Options) (Result, error) {
		opts.Precision = objective.UniformPrecision(1, opts.Objectives).With(objective.BufferFootprint, opts.Alpha)
		return RTA(m, w, opts)
	}},
	{"IRA", true, false, IRA},
}

// routeAnswer is what every route to an answer must agree on: the bits of
// the frontier rows, the archive counters, the SelectBest index and the
// selected plan.
type routeAnswer struct {
	bits          uint64
	ins, rej, evi int
	best          int32
	signature     string
}

// answerOf fingerprints one result, and checks on the way that Best is
// the frontier's own tree for the selected row, not a second copy.
func answerOf(t *testing.T, label string, q *query.Query, res Result, w objective.Weights, b objective.Bounds) routeAnswer {
	t.Helper()
	a := routeAnswer{bits: frontierBits(res.Frontier), best: res.Frontier.SelectBest(w, b)}
	a.ins, a.rej, a.evi = res.Frontier.Stats()
	if a.best < 0 || res.Best != res.Frontier.Plans()[a.best] {
		t.Fatalf("%s: Best is not Frontier.Plans()[%d]", label, a.best)
	}
	a.signature = res.Best.Signature(q)
	return a
}

// roundTrip returns the snapshot as a reader of its serialized form sees it.
func roundTrip(t *testing.T, snap *FrontierSnapshot) *FrontierSnapshot {
	t.Helper()
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalFrontierSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSnapshotMatchesRun: for every frontier-extracting algorithm, the
// snapshot's frontier is exactly the run's — same length, same canonical
// order, same cost vectors, same plan trees — and a second run answers
// as the first did.
func TestSnapshotMatchesRun(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	for _, alg := range routeAlgorithms {
		for _, alpha := range []float64{1, 1.5, 3} {
			label := fmt.Sprintf("%s alpha %v", alg.name, alpha)
			opts := smallOpts(threeObjs)
			opts.Alpha = alpha
			cold, err := alg.run(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.run(m, w, objective.NoBounds(), opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := res.Snapshot
			if snap == nil {
				t.Fatalf("%s: no snapshot returned", label)
			}
			if got, want := answerOf(t, label, q, res, w, objective.NoBounds()), answerOf(t, label, q, cold, w, objective.NoBounds()); got != want {
				t.Fatalf("%s: a second run answered differently: %+v vs %+v", label, got, want)
			}

			if snap.Len() != res.Frontier.Len() {
				t.Fatalf("%s: snapshot has %d plans, frontier %d", label, snap.Len(), res.Frontier.Len())
			}
			plans := snap.Plans()
			for i, p := range res.Frontier.Plans() {
				if snap.CostAt(int32(i)) != p.Cost {
					t.Fatalf("%s: cost %d differs: %v vs %v", label, i, snap.CostAt(int32(i)), p.Cost)
				}
				if plans[i].Format(q) != p.Format(q) {
					t.Fatalf("%s: plan %d differs:\n%s\nvs\n%s", label, i, plans[i].Format(q), p.Format(q))
				}
			}
		}
	}
}

// TestSelectFromSnapshotMatchesCold is the route matrix: {EXA, RTA,
// RTA per objective, IRA} × {cold, SelectFromSnapshot, SelectFromSnapshot after a
// serialization round trip}. Under random weights (and bounds, where the
// algorithm takes them) all three routes
// give the same frontier bits, archive counters, SelectBest index and
// plan. For the reweightable algorithms the snapshot served is one
// captured under different weights.
func TestSelectFromSnapshotMatchesCold(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	r := rand.New(rand.NewSource(7))

	for _, alg := range routeAlgorithms {
		opts := smallOpts(threeObjs)
		opts.Alpha = 1.5
		seed, err := alg.run(m, objective.UniformWeights(threeObjs), objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}

		for trial := 0; trial < 25; trial++ {
			label := fmt.Sprintf("%s trial %d", alg.name, trial)
			w, b := randomWeights(r, threeObjs), objective.NoBounds()
			if alg.bounded && trial%2 == 1 {
				b = b.With(objective.TupleLoss, r.Float64())
			}
			cold, err := alg.run(m, w, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := seed.Snapshot
			if !alg.reweightable {
				snap = cold.Snapshot
			}
			warm, err := SelectFromSnapshot(snap, w, b)
			if err != nil {
				t.Fatal(err)
			}
			shipped, err := SelectFromSnapshot(roundTrip(t, snap), w, b)
			if err != nil {
				t.Fatal(err)
			}

			if !warm.Stats.ReusedFrontier || !shipped.Stats.ReusedFrontier {
				t.Fatalf("%s: reuse result not flagged ReusedFrontier", label)
			}
			want := answerOf(t, label+" cold", q, cold, w, b)
			for route, res := range map[string]Result{"snapshot": warm, "round trip": shipped} {
				if got := answerOf(t, label+" "+route, q, res, w, b); got != want {
					t.Fatalf("%s: %s route answers %+v, cold %+v", label, route, got, want)
				}
			}
			if warm.Best.Cost != cold.Best.Cost {
				t.Fatalf("%s: best cost differs: %v vs %v", label, warm.Best.Cost, cold.Best.Cost)
			}
			if warm.Best.Format(q) != cold.Best.Format(q) {
				t.Fatalf("%s: best plan differs:\n%s\nvs\n%s", label, warm.Best.Format(q), cold.Best.Format(q))
			}
			if !reflect.DeepEqual(warm.Frontier.Frontier(), cold.Frontier.Frontier()) {
				t.Fatalf("%s: frontier vectors differ", label)
			}
		}
	}
}

// TestSelectFromSnapshotConcurrent: moqod serves every re-weight of a
// shape from one cached snapshot, concurrently. Sixteen goroutines
// selecting from one freshly decoded snapshot (nothing materialized yet)
// must all be handed the same tree — one materialization, shared — which
// -race checks is also published safely.
func TestSelectFromSnapshotConcurrent(t *testing.T) {
	m := costmodel.NewDefault(starQuery(t))
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	w := objective.UniformWeights(threeObjs)
	_, snap := snapRTA(t, m, w, opts)
	snap = roundTrip(t, snap)

	var wg sync.WaitGroup
	best := make([]*plan.Node, 16)
	for g := range best {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := SelectFromSnapshot(snap, w, objective.NoBounds())
			if err != nil {
				t.Error(err)
				return
			}
			best[g] = res.Best
		}()
	}
	wg.Wait()
	for g := range best {
		if best[g] == nil || best[g] != best[0] {
			t.Fatalf("goroutine %d was served tree %p, goroutine 0 %p", g, best[g], best[0])
		}
	}
}

// TestSnapshotRoundTrip: MarshalBinary/UnmarshalFrontierSnapshot is an
// exact round trip — the decoded snapshot, its plan trees materialized like
// the run's, is deep-equal and serves the same SelectBest answers.
func TestSnapshotRoundTrip(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	_, snap := snapRTA(t, m, objective.UniformWeights(threeObjs), opts)

	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalFrontierSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	back.Plans()
	if !reflect.DeepEqual(snap, back) {
		t.Fatal("decoded snapshot is not deep-equal to the original")
	}
	data2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}

	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		w := randomWeights(r, threeObjs)
		a, err := SelectFromSnapshot(snap, w, objective.NoBounds())
		if err != nil {
			t.Fatal(err)
		}
		b, err := SelectFromSnapshot(back, w, objective.NoBounds())
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Cost != b.Best.Cost || a.Best.Format(q) != b.Best.Format(q) {
			t.Fatalf("trial %d: decoded snapshot serves a different plan", trial)
		}
	}
}

// snapshotServeAllocs bounds what serving a stored snapshot allocates
// before any selection: the decode (the snapshot, its precision, one entry
// array and one cost array for every section, the sub-memo index) and the
// one materialization of its frontier trees (its slot cache, one slab of
// nodes and the plans slice). 7 measured on go1.24.
const snapshotServeAllocs = 12

// TestSnapshotServeAllocs: decoding a snapshot and materializing its
// frontier allocates one small constant, the same for every snapshot —
// however many frontier rows, retained sets and rows per set it holds. A
// term that grows with the snapshot (a slice per section, a map entry or a
// node per plan) shows as counts that differ between the snapshots.
func TestSnapshotServeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs RTA on TPC-H at up to nine objectives")
	}
	cat := catalog.TPCH(1)
	var first float64
	for _, objs := range []int{3, 6, 9} {
		set := objective.NewSet(objective.All()[:objs]...)
		for _, num := range []int{2, 3, 5, 7, 8, 9, 10} {
			label := fmt.Sprintf("q%d/%dobj", num, objs)
			opts := smallOpts(set)
			opts.Alpha = 1.5
			_, snap := snapRTA(t, costmodel.NewDefault(workload.MustQuery(num, cat)), objective.UniformWeights(set), opts)
			data, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				back, err := UnmarshalFrontierSnapshot(data)
				if err != nil {
					t.Fatal(err)
				}
				back.Plans()
			})
			t.Logf("%s: %d frontier rows, %d retained sets, %.0f allocs", label, snap.Len(), len(snap.subs), allocs)
			if first == 0 {
				first = allocs
			}
			if allocs != first || allocs > snapshotServeAllocs {
				t.Errorf("%s: decode + Plans allocates %.0f objects; want %.0f like every other snapshot, at most %d",
					label, allocs, first, snapshotServeAllocs)
			}
		}
	}
}

// TestSnapshotDecodeRejectsCorruption: truncations, trailing garbage,
// bad magic/version and dangling references are all rejected.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	m := costmodel.NewDefault(chainQuery(t))
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	_, snap := snapRTA(t, m, objective.UniformWeights(threeObjs), opts)
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalFrontierSnapshot(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := UnmarshalFrontierSnapshot(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if _, err := UnmarshalFrontierSnapshot(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte{}, data...)
	bad[4] = 0xFF // version
	if _, err := UnmarshalFrontierSnapshot(bad); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := UnmarshalFrontierSnapshot(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestSnapshotNotCapturedWhenDegraded: a timed-out run never yields a
// snapshot — truncated frontiers must not enter the frontier cache.
func TestSnapshotNotCapturedWhenDegraded(t *testing.T) {
	m := costmodel.NewDefault(starQuery(t))
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	res, err := RTAContext(expired(t), m, objective.UniformWeights(threeObjs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Skip("run finished within a nanosecond; cannot exercise the degraded path")
	}
	if res.Snapshot != nil {
		t.Fatal("degraded run produced a frontier snapshot")
	}
}

// TestIRASeededGuarantee: IRA seeded from a snapshot of the same
// weight/bound-free request meets the same Theorem 6 guarantee as cold
// IRA, across random weights and bounds.
func TestIRASeededGuarantee(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	r := rand.New(rand.NewSource(99))

	minima, err := ObjectiveMinima(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, alphaU := range []float64{1.15, 1.5, 2} {
		iopts := opts
		iopts.Alpha = alphaU

		// Seed: one cold IRA run under arbitrary weights/bounds.
		seedW := randomWeights(r, threeObjs)
		seedB := objective.NoBounds().
			With(objective.TotalTime, minima[objective.TotalTime]*(1+r.Float64()))
		seedRes, err := IRA(m, seedW, seedB, iopts)
		if err != nil {
			t.Fatal(err)
		}
		if seedRes.Snapshot == nil {
			t.Fatal("IRA returned no snapshot")
		}

		for trial := 0; trial < 10; trial++ {
			w := randomWeights(r, threeObjs)
			b := objective.NoBounds().
				With(objective.TotalTime, minima[objective.TotalTime]*(1+r.Float64())).
				With(objective.TupleLoss, r.Float64())
			exact, err := EXA(m, w, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			exactRespects := b.Respects(exact.Best.Cost, threeObjs)

			res, err := IRASeededContext(nil, m, w, b, iopts, seedRes.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.ReusedFrontier {
				t.Fatalf("alphaU %v trial %d: seeded IRA result not flagged ReusedFrontier", alphaU, trial)
			}
			if exactRespects && !b.Respects(res.Best.Cost, threeObjs) {
				t.Fatalf("alphaU %v trial %d: feasible instance but seeded IRA plan violates bounds", alphaU, trial)
			}
			if got, opt := w.Cost(res.Best.Cost), w.Cost(exact.Best.Cost); got > opt*alphaU*(1+1e-9) {
				t.Fatalf("alphaU %v trial %d: seeded IRA cost %v exceeds %v * optimum %v", alphaU, trial, got, alphaU, opt)
			}
		}
	}
}

// TestIRASeededRejectsMismatch: a seed over different objectives is
// rejected rather than silently serving a wrong frontier.
func TestIRASeededRejectsMismatch(t *testing.T) {
	m := costmodel.NewDefault(chainQuery(t))
	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	res, err := IRA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	two := objective.NewSet(objective.TotalTime, objective.BufferFootprint)
	bad := smallOpts(two)
	bad.Alpha = 1.5
	if _, err := IRASeededContext(nil, m, objective.UniformWeights(two), objective.NoBounds(), bad, res.Snapshot); err == nil {
		t.Fatal("seed with mismatched objectives accepted")
	}
	if _, err := IRASeededContext(nil, m, objective.UniformWeights(two), objective.NoBounds(), bad, nil); err == nil {
		t.Fatal("nil seed accepted")
	}
}

package moqo_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"moqo"
)

// reuseQuery builds a fresh TPC-H query (fresh catalog object, so reuse
// is keyed by content, not pointer identity).
func reuseQuery(t *testing.T, num int) *moqo.Query {
	t.Helper()
	q, err := moqo.TPCHQuery(num, moqo.TPCHCatalog(1))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// randWeights draws strictly positive weights on the given objectives.
func randWeights(r *rand.Rand, objs []moqo.Objective) map[moqo.Objective]float64 {
	w := make(map[moqo.Objective]float64, len(objs))
	for _, o := range objs {
		w[o] = 0.05 + r.Float64()
	}
	return w
}

// assertSameAnswer asserts two results agree bit-for-bit on plan, cost
// vector and frontier.
func assertSameAnswer(t *testing.T, label string, warm, cold *moqo.Result) {
	t.Helper()
	wj, err := warm.PlanJSON()
	if err != nil {
		t.Fatal(err)
	}
	cj, err := cold.PlanJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, cj) {
		t.Fatalf("%s: plans differ:\n%s\nvs\n%s", label, wj, cj)
	}
	wf, cf := warm.FrontierVectors(), cold.FrontierVectors()
	if len(wf) != len(cf) {
		t.Fatalf("%s: frontier sizes differ: %d vs %d", label, len(wf), len(cf))
	}
	for i := range wf {
		if wf[i] != cf[i] {
			t.Fatalf("%s: frontier[%d] differs: %v vs %v", label, i, wf[i], cf[i])
		}
	}
}

// TestReoptimizeMatchesColdDifferential is the acceptance differential:
// for EXA and RTA (scalar and per-objective precisions), the
// frontier-tier answer — SelectBest over the cached snapshot — is
// bit-for-bit identical to a cold full DP at randomly perturbed weights
// (and bounds, for EXA), across snapshot serialization.
func TestReoptimizeMatchesColdDifferential(t *testing.T) {
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.TupleLoss}
	r := rand.New(rand.NewSource(2024))

	cases := []struct {
		name   string
		tpch   int
		mutate func(*moqo.Request)
		bounds bool
	}{
		{name: "rta", tpch: 5, mutate: func(req *moqo.Request) {
			req.Algorithm = moqo.AlgoRTA
			req.Alpha = 1.5
		}},
		{name: "rta-precisions", tpch: 5, mutate: func(req *moqo.Request) {
			req.Algorithm = moqo.AlgoRTA
			req.Alpha = 2
			req.Precisions = map[moqo.Objective]float64{
				moqo.TotalTime:       1,
				moqo.BufferFootprint: 2,
				moqo.TupleLoss:       1.5,
			}
		}},
		{name: "exa", tpch: 3, mutate: func(req *moqo.Request) {
			req.Algorithm = moqo.AlgoEXA
		}, bounds: true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := reuseQuery(t, tc.tpch)
			base := moqo.Request{Query: q, Objectives: objs, Weights: randWeights(r, objs)}
			tc.mutate(&base)

			_, snap, err := moqo.OptimizeSnapshot(base)
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("no snapshot extracted")
			}
			// The differential crosses the serialization boundary: the warm
			// side serves from a decoded snapshot, like a restarted or
			// remote moqod replica would.
			data, err := snap.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := moqo.UnmarshalFrontierSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}

			for trial := 0; trial < 12; trial++ {
				req := base
				req.Weights = randWeights(r, objs)
				if tc.bounds && trial%2 == 1 {
					req.Bounds = map[moqo.Objective]float64{
						moqo.TupleLoss: r.Float64(),
					}
				} else {
					req.Bounds = nil
				}
				// Fresh query object: content-keyed reuse, not pointer-keyed.
				req.Query = reuseQuery(t, tc.tpch)

				cold, err := moqo.Optimize(req)
				if err != nil {
					t.Fatal(err)
				}
				warm, keep, err := moqo.Reoptimize(req, decoded)
				if err != nil {
					t.Fatal(err)
				}
				if keep != decoded {
					t.Fatal("EXA/RTA reuse returned a different snapshot to cache")
				}
				if !warm.Stats.ReusedFrontier {
					t.Fatal("reuse result not flagged ReusedFrontier")
				}
				if warm.Algorithm != cold.Algorithm {
					t.Fatalf("algorithms differ: %v vs %v", warm.Algorithm, cold.Algorithm)
				}
				for _, o := range objs {
					if warm.Cost(o) != cold.Cost(o) {
						t.Fatalf("trial %d: cost %v differs: %v vs %v", trial, o, warm.Cost(o), cold.Cost(o))
					}
				}
				assertSameAnswer(t, tc.name, warm, cold)
			}
		})
	}
}

// TestReoptimizeIRASeeded: a bounded request seeds IRA from the cached
// snapshot; the answer must respect the bounds whenever the cold answer
// does and stay within alphaU of the cold bounded optimum (the Theorem 6
// guarantee — seeded IRA certifies through the same stopping condition,
// not necessarily at the same iteration).
func TestReoptimizeIRASeeded(t *testing.T) {
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.TupleLoss}
	r := rand.New(rand.NewSource(7))
	const alphaU = 1.5

	q := reuseQuery(t, 3)
	base := moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoIRA,
		Alpha:      alphaU,
		Objectives: objs,
		Weights:    randWeights(r, objs),
		Bounds:     map[moqo.Objective]float64{moqo.TupleLoss: 0.5},
	}
	_, snap, err := moqo.OptimizeSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no IRA snapshot extracted")
	}

	for trial := 0; trial < 8; trial++ {
		req := base
		req.Query = reuseQuery(t, 3)
		req.Weights = randWeights(r, objs)
		req.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: r.Float64()}

		// The exact bounded optimum, for the guarantee check.
		exactReq := req
		exactReq.Algorithm = moqo.AlgoEXA
		exactReq.Alpha = 0
		exactReq.Precisions = nil
		exact, err := moqo.Optimize(exactReq)
		if err != nil {
			t.Fatal(err)
		}

		warm, _, err := moqo.Reoptimize(req, snap)
		if err != nil {
			t.Fatal(err)
		}
		weighted := func(res *moqo.Result) float64 {
			c := 0.0
			for o, x := range req.Weights {
				c += x * res.Cost(o)
			}
			return c
		}
		exactRespects := exact.Cost(moqo.TupleLoss) <= req.Bounds[moqo.TupleLoss]
		if exactRespects && warm.Cost(moqo.TupleLoss) > req.Bounds[moqo.TupleLoss] {
			t.Fatalf("trial %d: feasible instance but seeded IRA plan violates bounds", trial)
		}
		if got, opt := weighted(warm), weighted(exact); got > opt*alphaU*(1+1e-9) {
			t.Fatalf("trial %d: seeded IRA weighted cost %v exceeds %v x optimum %v", trial, got, alphaU, opt)
		}
	}
}

// TestSnapshotAPISurface: non-reusable algorithms yield no snapshot,
// degraded runs yield no snapshot, and Reoptimize rejects a snapshot
// from a different frontier (alpha change) or algorithm.
func TestSnapshotAPISurface(t *testing.T) {
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint}
	q := reuseQuery(t, 3)
	base := moqo.Request{
		Query:      q,
		Algorithm:  moqo.AlgoRTA,
		Alpha:      1.5,
		Objectives: objs,
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	}

	selinger := base
	selinger.Algorithm = moqo.AlgoSelinger
	if res, snap, err := moqo.OptimizeSnapshot(selinger); err != nil || res == nil {
		t.Fatalf("selinger: %v", err)
	} else if snap != nil {
		t.Fatal("selinger produced a frontier snapshot")
	}
	reusable := func(req moqo.Request) bool {
		r, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return r.ReusableFrontier()
	}
	if reusable(selinger) {
		t.Fatal("selinger reported a reusable frontier")
	}
	if !reusable(base) {
		t.Fatal("RTA did not report a reusable frontier")
	}

	degraded := base
	degraded.Timeout = time.Nanosecond
	if res, snap, err := moqo.OptimizeSnapshot(degraded); err != nil {
		t.Fatal(err)
	} else if res.Stats.TimedOut && snap != nil {
		t.Fatal("degraded run produced a frontier snapshot")
	}

	_, snap, err := moqo.OptimizeSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Alpha = 2
	if _, _, err := moqo.Reoptimize(other, snap); err == nil {
		t.Fatal("snapshot at alpha 1.5 accepted for an alpha 2 request")
	}
	exa := base
	exa.Algorithm = moqo.AlgoEXA
	if _, _, err := moqo.Reoptimize(exa, snap); err == nil {
		t.Fatal("RTA snapshot accepted for an EXA request")
	}
	bounded := base
	bounded.Bounds = map[moqo.Objective]float64{moqo.TotalTime: 1e12}
	if _, _, err := moqo.Reoptimize(bounded, snap); err == nil {
		t.Fatal("RTA snapshot accepted for a bounded request")
	}
	if _, _, err := moqo.Reoptimize(base, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

// TestReoptimizeSeededHonorsSharedMemo: a seeded IRA refinement is an
// engine run like any other, so Request.Shared applies to it. The same
// refining Reoptimize twice against one SharedMemo: the second must be
// served subproblems the first published, with an identical answer.
func TestReoptimizeSeededHonorsSharedMemo(t *testing.T) {
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.TupleLoss}
	base := moqo.Request{
		Query:      reuseQuery(t, 3),
		Algorithm:  moqo.AlgoIRA,
		Alpha:      2,
		Objectives: objs,
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.3},
	}
	cold, seed, err := moqo.OptimizeSnapshot(base)
	if err != nil || seed == nil {
		t.Fatalf("seed: snapshot %v, err %v", seed, err)
	}

	// Bounds just under the unbounded optimum: the coarse seed cannot
	// certify them, so Reoptimize has to run dynamic programs (it hands
	// back a finer snapshot when it did).
	req := base
	req.Bounds = map[moqo.Objective]float64{
		moqo.BufferFootprint: 0.9 * cold.Cost(moqo.BufferFootprint),
		moqo.TupleLoss:       0,
	}
	if _, out, err := moqo.Reoptimize(req, seed); err != nil {
		t.Fatal(err)
	} else if out == seed {
		t.Fatal("the seeded IRA did not refine; the test exercises nothing")
	}

	req.Shared = moqo.NewSharedMemo()
	first, _, err := moqo.Reoptimize(req, seed)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.SharedMemoHits != 0 {
		t.Fatalf("first run against an empty memo reported %d hits", first.Stats.SharedMemoHits)
	}
	second, _, err := moqo.Reoptimize(req, seed)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.SharedMemoHits == 0 {
		t.Fatal("seeded refinement ignored Request.Shared: no shared-memo hits on the second identical run")
	}
	assertSameAnswer(t, "shared seeded refinement", second, first)
}

// renderQuery builds a four-table chain whose relations are named
// prefix1..prefix4 and whose three join edges are declared in the given
// order. Neither the names nor the declaration order is in FrontierKey —
// the key carries table names and the sorted edge list — but a rendered
// plan shows both: the names as "relation", the order as the last bit of
// "rows" (Query.EstimateRows multiplies selectivities as declared).
func renderQuery(prefix string, edgeOrder [3]int) *moqo.Query {
	cat := moqo.NewCatalog()
	cat.AddTable("a", 1000, 64, "id")
	cat.AddTable("b", 20000, 32, "id")
	cat.AddTable("c", 300000, 48, "id")
	cat.AddTable("d", 7000, 16, "id")
	q := moqo.NewQuery("chain", cat)
	for i, table := range []string{"a", "b", "c", "d"} {
		q.AddRelation(table, fmt.Sprintf("%s%d", prefix, i+1), 1/float64(i+3))
	}
	sels := [3]float64{1.0 / 3, 1.0 / 5, 1.0 / 7}
	for _, e := range edgeOrder {
		q.AddJoin(e, e+1, "id", "fk", sels[e])
	}
	return q
}

// TestReoptimizeKeepsRequestAliases: a snapshot captured from query A
// answers Reoptimize for a query B that shares A's FrontierKey but names its
// relations differently — and for a query C that declares A's edges in
// another order — with that query's own rendering of the selected plan, what
// Plan.JSON gives for it afresh: before A has rendered the selected row into
// the frontier's memo, after, and A's again once the other query has taken
// the slot over. For B that is also, byte for byte, the cold run's plan.
// (Not for C: a cold run costs plans with its own last-bit "rows", the
// snapshot carries A's.)
func TestReoptimizeKeepsRequestAliases(t *testing.T) {
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint}
	request := func(q *moqo.Query) moqo.Request {
		return moqo.Request{
			Query: q, Algorithm: moqo.AlgoEXA, Objectives: objs,
			Weights: map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.01},
		}
	}
	// warm answers q from the snapshot and returns the memoized rendering
	// next to a fresh one of the same plan for the same query.
	warm := func(q *moqo.Query, snap *moqo.FrontierSnapshot) (memo, fresh string) {
		t.Helper()
		res, _, err := moqo.Reoptimize(request(q), snap)
		if err != nil {
			t.Fatal(err)
		}
		m, err := res.PlanJSON()
		if err != nil {
			t.Fatal(err)
		}
		f, err := res.Plan.JSON(q, moqo.NewObjectiveSet(objs...))
		if err != nil {
			t.Fatal(err)
		}
		return string(m), string(f)
	}

	a := renderQuery("x", [3]int{0, 1, 2})
	others := map[string]*moqo.Query{
		"aliases":    renderQuery("y", [3]int{0, 1, 2}),
		"edge order": renderQuery("x", [3]int{2, 1, 0}),
	}
	for name, b := range others {
		t.Run(name, func(t *testing.T) {
			_, snap, err := moqo.OptimizeSnapshot(request(a))
			if err != nil || snap == nil {
				t.Fatalf("snapshot %v, err %v", snap, err)
			}
			gotB, wantB := warm(b, snap)
			if gotB != wantB {
				t.Errorf("before A rendered the row: got\n%s\nwant\n%s", gotB, wantB)
			}
			gotA, wantA := warm(a, snap)
			if gotA != wantA {
				t.Errorf("A after the other query rendered the row: got\n%s\nwant\n%s", gotA, wantA)
			}
			if wantA == wantB {
				t.Fatal("the two queries render alike: the test exercises nothing")
			}
			if gotB, _ = warm(b, snap); gotB != wantB {
				t.Errorf("after A rendered the row: got\n%s\nwant\n%s", gotB, wantB)
			}
			if name != "aliases" {
				return
			}
			if strings.Contains(gotB, `"x`) || !strings.Contains(gotB, `"y1"`) {
				t.Errorf("the answer to B does not name B's relations:\n%s", gotB)
			}
			cold, err := moqo.Optimize(request(b))
			if err != nil {
				t.Fatal(err)
			}
			if raw, err := cold.PlanJSON(); err != nil || string(raw) != gotB {
				t.Errorf("B from A's snapshot differs from B's cold run (err %v):\n%s\nvs\n%s", err, gotB, raw)
			}
		})
	}
}

// TestConcurrentReweightSharedSnapshot: sixteen goroutines re-weight one
// snapshot at once, each under the same 64 weight vectors in its own order
// and half of them through a query object of their own, so the frontier's
// plan trees and every rendering slot are filled, hit and taken over
// concurrently. Every answer is the answer of the same request run alone
// against a private copy of the snapshot. Under -race this is the memo's
// concurrency gate.
func TestConcurrentReweightSharedSnapshot(t *testing.T) {
	const goroutines, vectors = 16, 64
	objs := []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.Energy}
	cat := moqo.TPCHCatalog(0.01)
	newQuery := func() *moqo.Query {
		q, err := moqo.TPCHQuery(5, cat)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	base := moqo.Request{Query: newQuery(), Algorithm: moqo.AlgoRTA, Alpha: 1.2, Objectives: objs}
	r := rand.New(rand.NewSource(7))
	weights := make([]map[moqo.Objective]float64, vectors)
	for i := range weights {
		// Log-uniform, because the objectives' units are orders of
		// magnitude apart: the selection then moves over the frontier.
		weights[i] = make(map[moqo.Objective]float64, len(objs))
		for _, o := range objs {
			weights[i][o] = math.Pow(10, 12*r.Float64()-6)
		}
	}

	base.Weights = weights[0]
	_, shared, err := moqo.OptimizeSnapshot(base)
	if err != nil || shared == nil {
		t.Fatalf("snapshot %v, err %v", shared, err)
	}
	data, err := shared.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	private, err := moqo.UnmarshalFrontierSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(q *moqo.Query, snap *moqo.FrontierSnapshot, i int) (string, error) {
		req := base
		req.Query, req.Weights = q, weights[i]
		res, _, err := moqo.Reoptimize(req, snap)
		if err != nil {
			return "", err
		}
		raw, err := res.PlanJSON()
		return string(raw), err
	}
	want := make([]string, vectors)
	rows := make(map[string]bool)
	for i := range want {
		if want[i], err = answer(base.Query, private, i); err != nil {
			t.Fatal(err)
		}
		rows[want[i]] = true
	}
	if len(rows) < 3 {
		t.Fatalf("the %d weight vectors select only %d distinct plans", vectors, len(rows))
	}

	queries := make([]*moqo.Query, goroutines)
	for g := range queries {
		queries[g] = base.Query
		if g%2 == 1 {
			queries[g] = newQuery()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < vectors; k++ {
				i := (k*7 + g*5) % vectors
				if got, err := answer(queries[g], shared, i); err != nil {
					t.Errorf("goroutine %d, weights %d: %v", g, i, err)
				} else if got != want[i] {
					t.Errorf("goroutine %d, weights %d: got\n%s\nalone\n%s", g, i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

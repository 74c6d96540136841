package moqo

import (
	"bytes"
	"fmt"
	"testing"

	"moqo/internal/core"
)

// TestPlanJSONMemoMatchesFreshRender holds the frontier's rendering memo
// against the rendering it stands for: on TPC-H q2, q5, q8 and q10 under
// EXA, RTA, IRA and Selinger (whose frontier is its one row), every row's
// memoized bytes are exactly Plan.JSON(q, objs) of that row's plan — on the
// call that fills the slot and on the one that hits it, for the run's own
// frontier and for the snapshot after a MarshalBinary round trip. And what
// Result.PlanJSON hands out is the caller's: writing over it changes no
// later answer.
func TestPlanJSONMemoMatchesFreshRender(t *testing.T) {
	cat := TPCHCatalog(0.01)
	three := []Objective{TotalTime, BufferFootprint, Energy}
	w := map[Objective]float64{TotalTime: 1, BufferFootprint: 0.1, Energy: 0.3}
	algs := []Request{
		{Algorithm: AlgoEXA, Objectives: three[:2], Weights: map[Objective]float64{TotalTime: 1, BufferFootprint: 0.1}},
		{Algorithm: AlgoRTA, Alpha: 1.5, Objectives: three, Weights: w},
		{Algorithm: AlgoIRA, Alpha: 1.5, Objectives: three, Weights: w, Bounds: map[Objective]float64{BufferFootprint: 1e9}},
		{Algorithm: AlgoSelinger, Objectives: three}, // optimizes the first, reports all three
	}
	checkRows := func(t *testing.T, label string, f *core.Frontier, q *Query, objs ObjectiveSet) {
		t.Helper()
		for i, p := range f.Plans() {
			want, err := p.JSON(q, objs)
			if err != nil {
				t.Fatal(err)
			}
			for _, call := range []string{"fill", "hit"} {
				got, err := f.PlanJSON(int32(i), q, objs)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s row %d (%s): memo\n%s\nfresh\n%s", label, i, call, got, want)
				}
			}
		}
	}
	for _, num := range []int{2, 5, 8, 10} {
		for _, req := range algs {
			t.Run(fmt.Sprintf("q%d/%v", num, req.Algorithm), func(t *testing.T) {
				q, err := TPCHQuery(num, cat)
				if err != nil {
					t.Fatal(err)
				}
				req.Query = q
				res, snap, err := OptimizeSnapshot(req)
				if err != nil {
					t.Fatal(err)
				}
				if res.front.Len() == 0 || (req.Algorithm == AlgoSelinger) != (snap == nil) {
					t.Fatalf("%d frontier rows, snapshot %v", res.front.Len(), snap)
				}

				// The public call, before any slot is filled: a copy each time.
				first, err := res.PlanJSON()
				if err != nil {
					t.Fatal(err)
				}
				want := bytes.Clone(first)
				clear(first)
				if again, err := res.PlanJSON(); err != nil || !bytes.Equal(again, want) {
					t.Fatalf("writing over PlanJSON's result changed the next call's (err %v):\n%s\nwas\n%s", err, again, want)
				}
				if fresh, err := res.Plan.JSON(q, res.objs); err != nil || !bytes.Equal(fresh, want) {
					t.Fatalf("PlanJSON is not the selected plan's rendering (err %v)", err)
				}

				checkRows(t, "run", res.front, q, res.objs)
				if snap == nil {
					return
				}
				checkRows(t, "snapshot", &snap.core.Frontier, q, res.objs)
				data, err := snap.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := UnmarshalFrontierSnapshot(data)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, "decoded snapshot", &decoded.core.Frontier, q, res.objs)
			})
		}
	}
}

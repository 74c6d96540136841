package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
	"moqo/internal/workload"
)

// TestAllTPCHQueriesRTA runs the RTA with all nine objectives over the
// complete TPC-H workload — the integration path of the Figure 9
// experiments — and validates every produced plan.
func TestAllTPCHQueriesRTA(t *testing.T) {
	cat := catalog.TPCH(0.1)
	objs := objective.AllSet()
	w := objective.UniformWeights(objs)
	for _, qn := range workload.PaperOrder {
		q := workload.MustQuery(qn, cat)
		m := costmodel.NewDefault(q)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := RTAContext(ctx, m, w, Options{Objectives: objs, Alpha: 1.5})
		cancel()
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		if res.Best == nil {
			t.Fatalf("q%d: no plan", qn)
		}
		if err := res.Best.Validate(q); err != nil {
			t.Errorf("q%d: invalid plan: %v", qn, err)
		}
		if res.Best.Tables != q.AllTables() {
			t.Errorf("q%d: plan covers %v", qn, res.Best.Tables)
		}
		for _, p := range res.Frontier.Plans() {
			if err := p.Validate(q); err != nil {
				t.Errorf("q%d frontier: %v", qn, err)
				break
			}
		}
	}
}

// TestAllTPCHQueriesIRABounded runs the IRA with a satisfiable deadline
// over the complete workload and checks the bound is respected whenever
// the optimizer did not time out.
func TestAllTPCHQueriesIRABounded(t *testing.T) {
	cat := catalog.TPCH(0.1)
	objs := objective.NewSet(objective.TotalTime, objective.IOLoad, objective.TupleLoss)
	w := objective.SingleWeight(objective.IOLoad)
	for _, qn := range workload.PaperOrder {
		q := workload.MustQuery(qn, cat)
		m := costmodel.NewDefault(q)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		minima, err := ObjectiveMinimaContext(ctx, m, Options{Objectives: objs})
		cancel()
		if err != nil {
			t.Fatalf("q%d minima: %v", qn, err)
		}
		b := objective.NoBounds().With(objective.TotalTime, minima[objective.TotalTime]*3)
		ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		res, err := IRAContext(ctx, m, w, b, Options{Objectives: objs, Alpha: 1.5})
		cancel()
		if err != nil {
			t.Fatalf("q%d: %v", qn, err)
		}
		if !res.Stats.TimedOut && !b.Respects(res.Best.Cost, objs) {
			t.Errorf("q%d: satisfiable deadline violated: time %v > bound %v",
				qn, res.Best.Cost[objective.TotalTime], b[objective.TotalTime])
		}
	}
}

// TestRandomSyntheticCrossCheck stresses the approximation guarantee on
// random join-graph shapes beyond TPC-H: for every random tree/chain/star
// query, RTA's weighted cost stays within alpha of the exact optimum.
func TestRandomSyntheticCrossCheck(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	shapes := []synthetic.Shape{synthetic.Chain, synthetic.Star, synthetic.RandomTree, synthetic.Clique}
	for trial := 0; trial < 12; trial++ {
		spec := synthetic.Spec{
			Shape:   shapes[trial%len(shapes)],
			Tables:  2 + r.Intn(4),
			MaxRows: 1e4,
			Seed:    int64(trial),
		}
		_, q, err := synthetic.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := costmodel.NewDefault(q)
		var w objective.Weights
		for _, o := range objs.IDs() {
			w[o] = r.Float64()
		}
		exact, err := EXA(m, w, objective.NoBounds(), Options{Objectives: objs, MaxDOP: 2})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		for _, alpha := range []float64{1.1, 1.5, 3} {
			approx, err := RTA(m, w, Options{Objectives: objs, Alpha: alpha, MaxDOP: 2})
			if err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			got, opt := w.Cost(approx.Best.Cost), w.Cost(exact.Best.Cost)
			if got > opt*alpha*(1+1e-9) {
				t.Errorf("%s n=%d seed=%d alpha=%v: RTA %v > %v * EXA %v",
					spec.Shape, spec.Tables, spec.Seed, alpha, got, alpha, opt)
			}
			if got < opt*(1-1e-9) {
				t.Errorf("%s n=%d: RTA beat EXA (%v < %v)", spec.Shape, spec.Tables, got, opt)
			}
		}
	}
}

// TestSelingerAcrossObjectives: the single-objective DP must produce, for
// every objective, a plan whose cost in that objective is minimal among
// all algorithms' results.
func TestSelingerAcrossObjectives(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	for _, o := range objective.All() {
		res, err := Selinger(m, o, Options{MaxDOP: 2})
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		// Compare against the EXA frontier over a superset of objectives
		// in the SAME plan space (tuple loss in the objective set would
		// otherwise enable sampling scans that Selinger's space lacks):
		// no frontier plan can undercut the single-objective minimum.
		objs := objective.NewSet(o, objective.TotalTime, objective.TupleLoss)
		exact, err := EXA(m, objective.SingleWeight(o), objective.NoBounds(),
			Options{Objectives: objs, MaxDOP: 2, AllowSampling: Bool(false)})
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		for _, p := range exact.Frontier.Plans() {
			if p.Cost[o] < res.Best.Cost[o]*(1-1e-9) {
				t.Errorf("%v: frontier plan %v undercuts Selinger minimum %v",
					o, p.Cost[o], res.Best.Cost[o])
			}
		}
	}
}

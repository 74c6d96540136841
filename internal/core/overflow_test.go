package core

import (
	"fmt"
	"math"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// TestOverflowMatchesReference runs the engine where the cost formulas leave
// the finite floats: base tables of up to 1e308 rows make cardinalities +Inf,
// and Inf-Inf and 0*Inf in the spill and loss terms make costs NaN. Nothing
// validates such statistics away today (ROADMAP 5(b)), so whatever the
// reference engine answers there is the answer — candidate for candidate,
// counter for counter and bit for bit, NaN payloads included. It is the
// corner a shortcut in front of the archive gets wrong first: a NaN compares
// false both ways, so a test written as the negation of another accepts what
// the other rejects (see worker.joinPairs for the one that has to fail
// closed).
func TestOverflowMatchesReference(t *testing.T) {
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy, objective.TupleLoss)
	sawNaN, sawInf := false, false
	for _, shape := range []synthetic.Shape{synthetic.Chain, synthetic.Star, synthetic.Cycle} {
		for _, maxRows := range []float64{1e150, 1e300, 1e308} {
			t.Run(fmt.Sprintf("%v/%g", shape, maxRows), func(t *testing.T) {
				_, q := synthetic.MustBuild(synthetic.Spec{Shape: shape, Tables: 6, MaxRows: maxRows, Seed: 5})
				m := costmodel.NewDefault(q)
				w := objective.UniformWeights(objs)
				opts := Options{Objectives: objs}

				exa, err := EXA(m, w, objective.NoBounds(), opts)
				if err != nil {
					t.Fatal(err)
				}
				refEXA, err := ReferenceEXA(m, w, objective.NoBounds(), opts)
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, "EXA", exa, refEXA)

				opts.Alpha = 1.5
				rta, err := RTA(m, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				refRTA, err := ReferenceRTA(m, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				compareRuns(t, "RTA", rta, refRTA)

				for _, v := range exa.Frontier.Frontier() {
					for _, x := range v {
						sawNaN = sawNaN || math.IsNaN(x)
						sawInf = sawInf || math.IsInf(x, 1)
					}
				}
			})
		}
	}
	if !sawNaN || !sawInf {
		t.Errorf("no frontier held a NaN (%v) and a +Inf (%v): the instances no longer reach the corner", sawNaN, sawInf)
	}
}

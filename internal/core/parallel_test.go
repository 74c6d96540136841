package core

import (
	"fmt"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// frontierSignature renders an archive's cost vectors for equality checks.
func frontierSignature(t testing.TB, res Result, objs objective.Set) string {
	t.Helper()
	sig := ""
	for _, v := range res.Frontier.Frontier() {
		sig += v.FormatOn(objs) + "\n"
	}
	return sig
}

// TestParallelMatchesSerial: the level-synchronized pool must produce
// exactly the serial engine's results — same best plan, same frontier
// vectors, same candidate counts — for every worker count, on every
// topology, for both the Pareto and the scalar dynamic programs. The pool
// is forced on (forcePool), so the comparison holds whatever the sequential
// cutoff makes of these shapes.
func TestParallelMatchesSerial(t *testing.T) {
	forcePool(t)
	shapes := []synthetic.Shape{synthetic.Chain, synthetic.Star, synthetic.Clique}
	for _, shape := range shapes {
		t.Run(shape.String(), func(t *testing.T) {
			_, q := synthetic.MustBuild(synthetic.Spec{
				Shape: shape, Tables: 6, MaxRows: 1e4, Seed: 7,
			})
			m := costmodel.NewDefault(q)
			w := objective.UniformWeights(threeObjs)

			run := func(workers int) (Result, Result, Result) {
				opts := Options{Objectives: threeObjs, Alpha: 1.3, MaxDOP: 2, Workers: workers}
				rta, err := RTA(m, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				exaOpts := opts
				exaOpts.Alpha = 1
				exa, err := EXA(m, w, objective.NoBounds(), exaOpts)
				if err != nil {
					t.Fatal(err)
				}
				sel, err := Selinger(m, objective.TotalTime, opts)
				if err != nil {
					t.Fatal(err)
				}
				return rta, exa, sel
			}

			rta1, exa1, sel1 := run(1)
			for _, workers := range []int{2, 4, 8} {
				rtaN, exaN, selN := run(workers)
				for _, pair := range []struct {
					name             string
					serial, parallel Result
				}{
					{"RTA", rta1, rtaN},
					{"EXA", exa1, exaN},
					{"Selinger", sel1, selN},
				} {
					if got, want := pair.parallel.Best.Cost, pair.serial.Best.Cost; got != want {
						t.Errorf("%s workers=%d best cost %v != serial %v", pair.name, workers, got, want)
					}
					if got, want := pair.parallel.Stats.Considered, pair.serial.Stats.Considered; got != want {
						t.Errorf("%s workers=%d considered %d != serial %d", pair.name, workers, got, want)
					}
					if got, want := pair.parallel.Stats.Stored, pair.serial.Stats.Stored; got != want {
						t.Errorf("%s workers=%d stored %d != serial %d", pair.name, workers, got, want)
					}
					if got, want := pair.parallel.Stats.ParetoLast, pair.serial.Stats.ParetoLast; got != want {
						t.Errorf("%s workers=%d paretoLast %d != serial %d", pair.name, workers, got, want)
					}
					gotSig := frontierSignature(t, pair.parallel, threeObjs)
					wantSig := frontierSignature(t, pair.serial, threeObjs)
					if gotSig != wantSig {
						t.Errorf("%s workers=%d frontier differs:\n%s\nvs serial:\n%s", pair.name, workers, gotSig, wantSig)
					}
				}
			}
		})
	}
}

// TestParallelIRAMatchesSerial: the iterative algorithm runs every
// refinement iteration on the pool; results must not depend on Workers.
// The pool is forced on (forcePool): the iterations are below the
// sequential cutoff.
func TestParallelIRAMatchesSerial(t *testing.T) {
	forcePool(t)
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	b := objective.NoBounds().With(objective.TotalTime, 1e7)

	opts := smallOpts(threeObjs)
	opts.Alpha = 1.5
	serial, err := IRA(m, w, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	parallel, err := IRA(m, w, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Best.Cost != parallel.Best.Cost {
		t.Errorf("IRA workers=4 best cost %v != serial %v", parallel.Best.Cost, serial.Best.Cost)
	}
	if serial.Stats.Iterations != parallel.Stats.Iterations {
		t.Errorf("IRA workers=4 iterations %d != serial %d", parallel.Stats.Iterations, serial.Stats.Iterations)
	}
	if serial.Stats.Considered != parallel.Stats.Considered {
		t.Errorf("IRA workers=4 considered %d != serial %d", parallel.Stats.Considered, serial.Stats.Considered)
	}
}

// TestParallelRace exercises the pool with many workers on a query large
// enough that every level is sharded; run under -race this is the
// regression test for the lock-free memo discipline (satisfying it also
// depends on newEngine's costmodel.Model.Warm call — without it, the
// workers would fill the Model's estimate table concurrently).
func TestParallelRace(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 10, MaxRows: 1e5, Seed: 3,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	res, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no plan")
	}
	if err := res.Best.Validate(q); err != nil {
		t.Error(err)
	}
}

// TestTimeoutDegradesGracefully: with an already expired deadline the
// run must still produce a full-cover plan (single-plan degraded mode,
// paper Section 5.1) and flag the timeout, for both serial and parallel
// engines.
func TestTimeoutDegradesGracefully(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 8, MaxRows: 1e5, Seed: 5,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res, err := RTAContext(expired(t), m, w, Options{
				Objectives: threeObjs,
				Alpha:      1.5,
				Workers:    workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.TimedOut {
				t.Error("expired timeout not flagged")
			}
			if res.Best == nil {
				t.Fatal("degraded mode produced no plan")
			}
			if res.Best.Tables != q.AllTables() {
				t.Errorf("degraded plan covers %v, want all tables", res.Best.Tables)
			}
			if err := res.Best.Validate(q); err != nil {
				t.Error(err)
			}
			// Degraded sets hold exactly one plan; the frontier of the
			// full set can therefore not exceed one entry.
			if res.Frontier.Len() > 1 {
				t.Errorf("degraded frontier holds %d plans", res.Frontier.Len())
			}
		})
	}
}

// TestTimeoutDegradedWeightsSteer: the degraded mode picks per table set
// the single plan minimizing the *weighted* cost, so with an expired
// deadline different weight vectors may pick different plans but every
// result must remain a valid full cover.
func TestTimeoutDegradedWeightsSteer(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	for _, o := range []objective.ID{objective.TotalTime, objective.BufferFootprint} {
		res, err := RTAContext(expired(t), m, objective.SingleWeight(o), Options{
			Objectives: threeObjs,
			Alpha:      1.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.TimedOut || res.Best == nil {
			t.Fatalf("objective %v: timedOut=%v best=%v", o, res.Stats.TimedOut, res.Best)
		}
		if err := res.Best.Validate(q); err != nil {
			t.Error(err)
		}
	}
}

// TestWorkersValidation: Options.Normalize must default Workers to 1 and
// reject negative values.
func TestWorkersValidation(t *testing.T) {
	opts, err := Options{Objectives: threeObjs}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 1 {
		t.Errorf("default Workers = %d, want 1", opts.Workers)
	}
	if _, err := (Options{Objectives: threeObjs, Workers: -2}).Normalize(); err == nil {
		t.Error("negative Workers accepted")
	}
}

// TestWorkersBeyondSets: more workers than table sets per level must not
// deadlock or change results (the pool clamps to the level size). The pool
// is forced on (forcePool): the run is below the sequential cutoff.
func TestWorkersBeyondSets(t *testing.T) {
	forcePool(t)
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	serial, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RTA(m, w, Options{Objectives: threeObjs, Alpha: 1.3, Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Best.Cost != wide.Best.Cost {
		t.Errorf("workers=64 best cost %v != serial %v", wide.Best.Cost, serial.Best.Cost)
	}
	if serial.Stats.Considered != wide.Stats.Considered {
		t.Errorf("workers=64 considered %d != serial %d", wide.Stats.Considered, serial.Stats.Considered)
	}
}

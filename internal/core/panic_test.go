package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// TestWorkerPanicContained: a panic inside a worker must not kill the
// process or deadlock the level barrier — the run returns
// ErrEnginePanic (with the panic value and stack in the message), the
// spawned pool goroutines retire, and the engine stays usable for the
// next run.
func TestWorkerPanicContained(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 10, MaxRows: 1e4, Seed: 2,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 4}

	before := runtime.NumGoroutine()
	SetPanicHook(func(id int32) {
		if id == 17 {
			panic("chaos: worker crash on set 17")
		}
	})
	defer SetPanicHook(nil)

	_, err := RTAContext(context.Background(), m, w, opts)
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic", err)
	}
	if !strings.Contains(err.Error(), "chaos: worker crash on set 17") {
		t.Fatalf("panic value lost from error: %v", err)
	}

	// Pool goroutines have drained through the level barrier and returned:
	// the pool's shutdown waits for them.
	if g := goroutinesSettle(before); g > before {
		t.Fatalf("goroutines leaked after panic: %d before, %d after", before, g)
	}

	// The crash poisoned nothing shared: the same optimization succeeds
	// once the hook is gone.
	SetPanicHook(nil)
	res, err := RTAContext(context.Background(), m, w, opts)
	if err != nil || res.Best == nil {
		t.Fatalf("run after contained panic: res.Best=%v err=%v", res.Best, err)
	}
}

// goroutinesSettle returns the number of live goroutines once it is at most
// want, or after five seconds. levelPool.shutdown returns when every pool
// goroutine has left its loop, and the runtime retires each a moment later:
// read at once, runtime.NumGoroutine can still count one (a few runs in a
// hundred under -race). A leaked goroutine never stops counting.
func goroutinesSettle(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= want || time.Now().After(deadline) {
			return g
		}
		runtime.Gosched()
	}
}

// TestWorkerPanicSingleWorker: the inline (Workers==1) path contains
// panics through the same wrapper.
func TestWorkerPanicSingleWorker(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Chain, Tables: 6, MaxRows: 1e4, Seed: 1,
	})
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	opts := Options{Objectives: threeObjs, Alpha: 1.2, Workers: 1}

	SetPanicHook(func(id int32) {
		if id == 3 {
			panic("chaos: inline crash")
		}
	})
	defer SetPanicHook(nil)
	_, err := RTAContext(context.Background(), m, w, opts)
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic", err)
	}
}

// TestScalarPanicContained: the scalar DP (Selinger) shares the
// containment, and reports the panic rather than a bogus cancellation.
func TestScalarPanicContained(t *testing.T) {
	_, q := synthetic.MustBuild(synthetic.Spec{
		Shape: synthetic.Clique, Tables: 8, MaxRows: 1e4, Seed: 3,
	})
	m := costmodel.NewDefault(q)
	opts := Options{Objectives: threeObjs, Workers: 2}

	SetPanicHook(func(id int32) {
		if id == 9 {
			panic("chaos: scalar crash")
		}
	})
	defer SetPanicHook(nil)
	_, err := SelingerContext(context.Background(), m, objective.TotalTime, opts)
	if !errors.Is(err, ErrEnginePanic) {
		t.Fatalf("err = %v, want ErrEnginePanic (not a context error)", err)
	}
}

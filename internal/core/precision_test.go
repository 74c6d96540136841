package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
)

// TestUniformPrecisionMatchesRTA pins that a uniform Options.Precision is
// Alpha, bit for bit: RTA at Precision = UniformPrecision(α) and RTA at
// Alpha = α build one pruning plan, so they agree on the frontier's rows,
// entries and sub-memo, on every Stats counter, on the shared-memo key
// prefix, and on the snapshot bytes — except the precision flag and the level
// vector that only a run under Options.Precision records.
func TestUniformPrecisionMatchesRTA(t *testing.T) {
	q := chainQuery(t)
	w := objective.UniformWeights(threeObjs)
	run := func(opts Options) (Result, []byte) {
		t.Helper()
		opts.Shared = NewSharedMemo()
		var prefix []byte
		beforeExtract = func(e *engine, _ *pareto.FlatArchive) { prefix = e.sharedPrefix }
		defer func() { beforeExtract = nil }()
		res, err := RTA(costmodel.NewDefault(q), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot == nil || len(prefix) == 0 {
			t.Fatalf("run under %+v: snapshot %v, shared prefix %q", opts, res.Snapshot, prefix)
		}
		res.Stats.Duration, res.Snapshot.stats.Duration = 0, 0
		return res, prefix
	}
	scalarOpts, vectorOpts := smallOpts(threeObjs), smallOpts(threeObjs)
	scalarOpts.Alpha = 1.5
	vectorOpts.Precision = objective.UniformPrecision(1.5, threeObjs)
	scalar, scalarPrefix := run(scalarOpts)
	vector, vectorPrefix := run(vectorOpts)

	sf, vf := scalar.Frontier, vector.Frontier
	if !slices.Equal(bitsOf(sf.costs), bitsOf(vf.costs)) || !slices.Equal(sf.entries, vf.entries) {
		t.Errorf("frontier rows differ:\n%v\nvs\n%v", sf.Frontier(), vf.Frontier())
	}
	if !reflect.DeepEqual(scalar.Stats, vector.Stats) {
		t.Errorf("stats differ: %+v vs %+v", scalar.Stats, vector.Stats)
	}
	if !bytes.Equal(scalarPrefix, vectorPrefix) {
		t.Errorf("shared-memo key prefixes differ: %q vs %q", scalarPrefix, vectorPrefix)
	}

	sb, err := scalar.Snapshot.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := vector.Snapshot.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Magic, version, objectives, set and level alpha; then the precision
	// flag, followed under Options.Precision by the nine-entry level vector.
	const flag, vec = 24, 9 * 8
	level := objective.UniformPrecision(1.5, threeObjs).Root(q.NumRelations())
	switch {
	case len(sb) <= flag || len(vb) != len(sb)+vec:
		t.Fatalf("snapshot sizes %d and %d, want the second %d bytes longer", len(sb), len(vb), vec)
	case sb[flag] != 0 || vb[flag] != 1:
		t.Errorf("precision flags %d and %d, want 0 and 1", sb[flag], vb[flag])
	case !bytes.Equal(sb[:flag], vb[:flag]) || !bytes.Equal(sb[flag+1:], vb[flag+1+vec:]):
		t.Error("snapshots differ outside the precision flag and vector")
	case *vector.Snapshot.prec != level:
		t.Errorf("recorded level vector %v, want %v", *vector.Snapshot.prec, level)
	}
}

// TestSharedPrefixPinned holds the shared-memo key prefix of RTA runs over
// three, six and nine objectives, under a precision that differs per
// objective, to its committed bytes: the |cfg= list names each active
// objective in declaration order with its level precision, so a change to
// how prepareShared walks the set can neither reorder nor respell a key.
func TestSharedPrefixPinned(t *testing.T) {
	q := chainQuery(t)
	six := objective.NewSet(objective.TotalTime, objective.StartupTime, objective.IOLoad,
		objective.Cores, objective.Energy, objective.TupleLoss)
	for _, c := range []struct {
		objs objective.Set
		want string
	}{
		{threeObjs, "sm1|cat=4239655adaeb480b|cfg=0:1.040041911525952,6:1.233106037165235,8:1.2856407953291176|dop=2|smp=true"},
		{six, "sm1|cat=4239655adaeb480b|cfg=0:1.040041911525952,1:1.077217345015942,2:1.1119900452846578,4:1.1756673438603786,7:1.259921049894873,8:1.2856407953291176|dop=2|smp=true"},
		{objective.AllSet(), "sm1|cat=4239655adaeb480b|cfg=0:1.040041911525952,1:1.077217345015942,2:1.1119900452846578,3:1.1447142425533319,4:1.1756673438603786,5:1.2050711320876148,6:1.233106037165235,7:1.259921049894873,8:1.2856407953291176|dop=2|smp=true"},
	} {
		opts := smallOpts(c.objs)
		for o := range objective.NumObjectives {
			opts.Precision[o] = 1 + float64(o+1)/8
		}
		opts.Shared = NewSharedMemo()
		var prefix []byte
		beforeExtract = func(e *engine, _ *pareto.FlatArchive) { prefix = e.sharedPrefix }
		_, err := RTA(costmodel.NewDefault(q), objective.UniformWeights(c.objs), opts)
		beforeExtract = nil
		if err != nil {
			t.Fatal(err)
		}
		if string(prefix) != c.want {
			t.Errorf("%v: shared prefix\n%q, want\n%q", c.objs, prefix, c.want)
		}
	}
}

// bitsOf returns the bit patterns of xs, so that float slices compare exactly.
func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func TestRTAVectorGuarantee(t *testing.T) {
	// The weighted cost stays within max precision over the weighted
	// objectives, and exactly-tracked objectives (precision 1) are never
	// worse than the exact frontier's best on that objective... the
	// per-objective guarantee: for every exact Pareto vector there is a
	// frontier vector within the per-objective factors.
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	r := rand.New(rand.NewSource(91))
	opts := smallOpts(threeObjs)
	exact, err := EXA(m, objective.UniformWeights(threeObjs), objective.NoBounds(), opts)
	if err != nil {
		t.Fatal(err)
	}
	prec := objective.UniformPrecision(1, threeObjs).
		With(objective.TotalTime, 1.2).
		With(objective.BufferFootprint, 3) // coarse where tolerant
	vectorOpts := opts
	vectorOpts.Precision = prec
	for trial := 0; trial < 10; trial++ {
		w := randomWeights(r, threeObjs)
		res, err := RTA(m, w, vectorOpts)
		if err != nil {
			t.Fatal(err)
		}
		// Per-objective cover of the exact frontier.
		for _, ev := range exact.Frontier.Frontier() {
			covered := false
			for _, av := range res.Frontier.Frontier() {
				if av.ApproxDominatesBy(ev, prec, threeObjs) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("exact vector %v not covered within per-objective precisions",
					ev.FormatOn(threeObjs))
			}
		}
		// Scalar guarantee with the max precision over weighted objectives.
		bound := prec.Max(w.Active())
		exactBest, err := EXA(m, w, objective.NoBounds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, opt := w.Cost(res.Best.Cost), w.Cost(exactBest.Best.Cost); got > opt*bound*(1+1e-9) {
			t.Fatalf("trial %d: cost %v beyond %v * optimum %v", trial, got, bound, opt)
		}
	}
}

func TestRTAVectorCoarserObjectivesShrinkArchives(t *testing.T) {
	q := starQuery(t)
	m := costmodel.NewDefault(q)
	w := objective.UniformWeights(threeObjs)
	tightOpts, looseOpts := smallOpts(threeObjs), smallOpts(threeObjs)
	tightOpts.Precision = objective.UniformPrecision(1.1, threeObjs)
	looseOpts.Precision = tightOpts.Precision.With(objective.BufferFootprint, 4)

	tight, err := RTA(m, w, tightOpts)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := RTA(m, w, looseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Stats.Stored >= tight.Stats.Stored {
		t.Errorf("coarsening one objective should shrink storage: %d vs %d",
			loose.Stats.Stored, tight.Stats.Stored)
	}
}

// TestRTAVectorValidation: RTA refuses an invalid Options.Precision and
// invalid weights under a valid one, and IRA, cold or seeded, refuses any
// Options.Precision: a per-objective precision is RTA's alone.
func TestRTAVectorValidation(t *testing.T) {
	q := chainQuery(t)
	m := costmodel.NewDefault(q)
	opts := smallOpts(threeObjs)
	opts.Precision = objective.UniformPrecision(1.5, threeObjs).With(objective.TotalTime, 0.5)
	if _, err := RTA(m, objective.UniformWeights(threeObjs), opts); err == nil {
		t.Error("precision < 1 accepted")
	}
	opts.Precision = objective.UniformPrecision(1.5, threeObjs)
	var w objective.Weights
	w[objective.TotalTime] = -1
	if _, err := RTA(m, w, opts); err == nil {
		t.Error("negative weights accepted")
	}

	w = objective.UniformWeights(threeObjs)
	seed, err := RTA(m, w, smallOpts(threeObjs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := IRAContext(ctx, m, w, objective.NoBounds(), opts); err == nil {
		t.Error("IRA accepted Options.Precision")
	}
	if _, err := IRASeededContext(ctx, m, w, objective.NoBounds(), opts, seed.Snapshot); err == nil {
		t.Error("seeded IRA accepted Options.Precision")
	}
}

package objective

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	cases := map[ID]string{
		TotalTime:       "total_time",
		StartupTime:     "startup_time",
		IOLoad:          "io_load",
		CPULoad:         "cpu_load",
		Cores:           "cores",
		DiskFootprint:   "disk_footprint",
		BufferFootprint: "buffer_footprint",
		Energy:          "energy",
		TupleLoss:       "tuple_loss",
	}
	for id, want := range cases {
		if got := id.String(); got != want {
			t.Errorf("ID(%d).String() = %q, want %q", id, got, want)
		}
	}
	if got := ID(42).String(); got != "objective(42)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestParseIDRoundTrip(t *testing.T) {
	for _, o := range All() {
		got, err := ParseID(o.String())
		if err != nil {
			t.Fatalf("ParseID(%q): %v", o.String(), err)
		}
		if got != o {
			t.Errorf("ParseID(%q) = %v, want %v", o.String(), got, o)
		}
	}
	if _, err := ParseID("bogus"); err == nil {
		t.Error("ParseID(bogus) succeeded, want error")
	}
}

func TestBoundedDomain(t *testing.T) {
	if !TupleLoss.Bounded() {
		t.Error("TupleLoss must have a bounded domain")
	}
	if got := TupleLoss.DomainMax(); got != 1 {
		t.Errorf("TupleLoss.DomainMax() = %v, want 1", got)
	}
	for _, o := range All() {
		if o == TupleLoss {
			continue
		}
		if o.Bounded() {
			t.Errorf("%v reported bounded, want unbounded", o)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("DomainMax on unbounded objective did not panic")
		}
	}()
	_ = TotalTime.DomainMax()
}

func TestUnitNonEmpty(t *testing.T) {
	for _, o := range All() {
		if o.Unit() == "" || o.Unit() == "?" {
			t.Errorf("%v has no unit", o)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(TotalTime, Energy, TupleLoss)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, o := range []ID{TotalTime, Energy, TupleLoss} {
		if !s.Contains(o) {
			t.Errorf("set should contain %v", o)
		}
	}
	if s.Contains(IOLoad) {
		t.Error("set should not contain io_load")
	}
	s2 := s.Add(IOLoad)
	if !s2.Contains(IOLoad) || s2.Len() != 4 {
		t.Error("Add failed")
	}
	s3 := s2.Remove(Energy)
	if s3.Contains(Energy) || s3.Len() != 3 {
		t.Error("Remove failed")
	}
	if AllSet().Len() != int(NumObjectives) {
		t.Errorf("AllSet().Len() = %d, want %d", AllSet().Len(), NumObjectives)
	}
	ids := NewSet(Energy, TotalTime).IDs()
	if len(ids) != 2 || ids[0] != TotalTime || ids[1] != Energy {
		t.Errorf("IDs() = %v, want declaration order [total_time energy]", ids)
	}
}

// TestSetWalksAgree holds Len, IDs and All to one reading of every one of
// the 65 536 bit patterns of a Set: only the nine objectives' bits count,
// and All yields the objectives in declaration order, as a Contains loop
// over the nine finds them. A range over All may also stop early.
func TestSetWalksAgree(t *testing.T) {
	for i := 0; i <= math.MaxUint16; i++ {
		s := Set(i)
		var want []ID
		for o := ID(0); o < NumObjectives; o++ {
			if s.Contains(o) {
				want = append(want, o)
			}
		}
		var walked []ID
		for o := range s.All() {
			walked = append(walked, o)
		}
		ids := s.IDs()
		if s.Len() != len(want) || !slices.Equal(ids, want) || !slices.Equal(walked, want) {
			t.Fatalf("set %#04x: Len %d, IDs %v, All %v; want %d objectives %v", i, s.Len(), ids, walked, len(want), want)
		}
		for o := range s.All() {
			if o != want[0] {
				t.Fatalf("set %#04x: All starts at %v, want %v", i, o, want[0])
			}
			break
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(TotalTime, TupleLoss)
	if got := s.String(); got != "{total_time,tuple_loss}" {
		t.Errorf("String() = %q", got)
	}
}

func TestVectorOps(t *testing.T) {
	var v Vector
	v = v.With(TotalTime, 2).With(Energy, 3)
	w := Vector{}.With(TotalTime, 5).With(IOLoad, 1)
	sum := v.Add(w)
	if sum.Get(TotalTime) != 7 || sum.Get(Energy) != 3 || sum.Get(IOLoad) != 1 {
		t.Errorf("Add wrong: %v", sum)
	}
	mx := v.Max(w)
	if mx.Get(TotalTime) != 5 || mx.Get(Energy) != 3 || mx.Get(IOLoad) != 1 {
		t.Errorf("Max wrong: %v", mx)
	}
	sc := v.Scale(2)
	if sc.Get(TotalTime) != 4 || sc.Get(Energy) != 6 {
		t.Errorf("Scale wrong: %v", sc)
	}
}

func TestVectorValid(t *testing.T) {
	if !(Vector{}).Valid() {
		t.Error("zero vector must be valid")
	}
	if (Vector{}.With(TotalTime, -1)).Valid() {
		t.Error("negative entry must be invalid")
	}
	if (Vector{}.With(TotalTime, math.NaN())).Valid() {
		t.Error("NaN entry must be invalid")
	}
	if (Vector{}.With(TotalTime, math.Inf(1))).Valid() {
		t.Error("Inf entry must be invalid")
	}
}

func TestPrecisionValid(t *testing.T) {
	objs := NewSet(TotalTime, Energy)
	if !UniformPrecision(1.5, objs).Valid() {
		t.Error("precision 1.5 must be valid")
	}
	for _, x := range []float64{0.5, math.NaN(), math.Inf(1)} {
		if UniformPrecision(1, objs).With(Energy, x).Valid() {
			t.Errorf("precision %v must be invalid", x)
		}
	}
}

// TestPrecisionHelpersZeroAlloc pins that UniformPrecision and
// Precision.Max walk the set's bits instead of building its ID slice: every
// RTA and IRA run calls both, and an allocation there is one more per cold
// run.
func TestPrecisionHelpersZeroAlloc(t *testing.T) {
	objs := NewSet(TotalTime, BufferFootprint, TupleLoss)
	var p Precision
	var m float64
	if n := testing.AllocsPerRun(100, func() {
		p = UniformPrecision(1.5, objs)
		m = p.With(TupleLoss, 2).Max(objs)
	}); n != 0 {
		t.Errorf("UniformPrecision and Max allocate %v times, want 0", n)
	}
	for o := ID(0); o < NumObjectives; o++ {
		want := 1.0
		if objs.Contains(o) {
			want = 1.5
		}
		if p[o] != want {
			t.Errorf("UniformPrecision(1.5, %v)[%v] = %v, want %v", objs, o, p[o], want)
		}
	}
	if m != 2 {
		t.Errorf("Max = %v, want 2", m)
	}
}

// TestDominanceZeroAlloc pins that the dominance relations walk the set
// instead of building its ID slice: the exact oracle (pareto.Archive,
// FilterPareto) and the cover checks ask them once per pair of vectors.
func TestDominanceZeroAlloc(t *testing.T) {
	objs := NewSet(TotalTime, IOLoad, Energy, TupleLoss)
	v := Vector{}.With(TotalTime, 1).With(IOLoad, 2).With(Energy, 3)
	w := v.With(TupleLoss, 0.5)
	p := UniformPrecision(1.5, objs)
	var got [5]bool
	if n := testing.AllocsPerRun(100, func() {
		got = [5]bool{
			v.Dominates(w, objs),
			v.StrictlyDominates(w, objs),
			v.ApproxDominates(w, 1.5, objs),
			v.ApproxDominatesBy(w, p, objs),
			v.EqualOn(w, objs),
		}
	}); n != 0 {
		t.Errorf("the dominance relations allocate %v times, want 0", n)
	}
	if want := [5]bool{true, true, true, true, false}; got != want {
		t.Errorf("Dominates, StrictlyDominates, ApproxDominates, ApproxDominatesBy, EqualOn = %v, want %v", got, want)
	}
}

// The running example of the paper (Example 1): plan p combines subplans
// with cost (7,1) and (6,2) into (7,3) using max for time and sum for
// energy; replacing the (7,1) subplan by (1,3) yields (6,5), which worsens
// the weighted cost even though the subplan's weighted cost improved.
func TestExample1WeightedSumNotOptimal(t *testing.T) {
	objs := NewSet(TotalTime, Energy)
	var w Weights
	w[TotalTime] = 1
	w[Energy] = 2

	p1 := Vector{}.With(TotalTime, 7).With(Energy, 1)
	p1alt := Vector{}.With(TotalTime, 1).With(Energy, 3)
	p2 := Vector{}.With(TotalTime, 6).With(Energy, 2)

	combine := func(a, b Vector) Vector {
		return Vector{}.
			With(TotalTime, math.Max(a.Get(TotalTime), b.Get(TotalTime))).
			With(Energy, a.Get(Energy)+b.Get(Energy))
	}
	p := combine(p1, p2)
	pAlt := combine(p1alt, p2)

	if got := w.Cost(p); got != 13 {
		t.Fatalf("C_W(p) = %v, want 13", got)
	}
	if got := w.Cost(pAlt); got != 16 {
		t.Fatalf("C_W(p*) = %v, want 16", got)
	}
	if !(w.Cost(p1alt) < w.Cost(p1)) {
		t.Fatal("subplan replacement should improve subplan weighted cost")
	}
	if !(w.Cost(pAlt) > w.Cost(p)) {
		t.Fatal("plan weighted cost should worsen (single-objective POO breaks)")
	}
	_ = objs
}

func TestDominance(t *testing.T) {
	objs := NewSet(TotalTime, BufferFootprint)
	a := Vector{}.With(TotalTime, 1).With(BufferFootprint, 2)
	b := Vector{}.With(TotalTime, 2).With(BufferFootprint, 2)
	c := Vector{}.With(TotalTime, 2).With(BufferFootprint, 1)

	if !a.Dominates(b, objs) {
		t.Error("a should dominate b")
	}
	if !a.StrictlyDominates(b, objs) {
		t.Error("a should strictly dominate b")
	}
	if a.Dominates(c, objs) || c.Dominates(a, objs) {
		t.Error("a and c must be incomparable")
	}
	if !a.Dominates(a, objs) {
		t.Error("dominance must be reflexive")
	}
	if a.StrictlyDominates(a, objs) {
		t.Error("strict dominance must be irreflexive")
	}
	// Entries outside the active set must be ignored.
	aBig := a.With(Energy, 1e9)
	if !aBig.Dominates(b, objs) {
		t.Error("inactive objectives must not affect dominance")
	}
}

func TestApproxDominates(t *testing.T) {
	objs := NewSet(TotalTime, BufferFootprint)
	a := Vector{}.With(TotalTime, 3).With(BufferFootprint, 3)
	b := Vector{}.With(TotalTime, 2).With(BufferFootprint, 2)
	if a.Dominates(b, objs) {
		t.Fatal("a must not dominate b exactly")
	}
	if !a.ApproxDominates(b, 1.5, objs) {
		t.Error("a should 1.5-approximately dominate b")
	}
	if a.ApproxDominates(b, 1.4, objs) {
		t.Error("a should not 1.4-approximately dominate b")
	}
	// alpha = 1 reduces approximate dominance to plain dominance.
	if a.ApproxDominates(b, 1, objs) != a.Dominates(b, objs) {
		t.Error("alpha=1 approx dominance must equal dominance")
	}
}

func TestWeightsCost(t *testing.T) {
	var w Weights
	w[TotalTime] = 2
	w[Energy] = 0.5
	v := Vector{}.With(TotalTime, 10).With(Energy, 4).With(IOLoad, 100)
	if got := w.Cost(v); got != 22 {
		t.Errorf("Cost = %v, want 22", got)
	}
	if w.Active() != NewSet(TotalTime, Energy) {
		t.Errorf("Active = %v", w.Active())
	}
}

func TestUniformAndSingleWeights(t *testing.T) {
	objs := NewSet(TotalTime, Energy, TupleLoss)
	u := UniformWeights(objs)
	if u.Active() != objs {
		t.Errorf("UniformWeights active = %v, want %v", u.Active(), objs)
	}
	s := SingleWeight(Energy)
	if s.Active() != NewSet(Energy) {
		t.Errorf("SingleWeight active = %v", s.Active())
	}
}

func TestWeightsValid(t *testing.T) {
	var w Weights
	if !w.Valid() {
		t.Error("zero weights must be valid")
	}
	w[Energy] = -1
	if w.Valid() {
		t.Error("negative weight must be invalid")
	}
}

func TestBounds(t *testing.T) {
	objs := NewSet(TotalTime, TupleLoss)
	b := NoBounds()
	if !b.Unbounded(objs) {
		t.Error("NoBounds must be unbounded")
	}
	v := Vector{}.With(TotalTime, 100).With(TupleLoss, 0.5)
	if !b.Respects(v, objs) {
		t.Error("every vector respects NoBounds")
	}
	b = b.With(TotalTime, 50)
	if b.Unbounded(objs) {
		t.Error("bounds no longer unbounded")
	}
	if b.Respects(v, objs) {
		t.Error("v exceeds the time bound")
	}
	if !b.RespectsRelaxed(v, 2, objs) {
		t.Error("v respects the bounds relaxed by factor 2")
	}
	got := b.BoundedObjectives(objs)
	if len(got) != 1 || got[0] != TotalTime {
		t.Errorf("BoundedObjectives = %v", got)
	}
	if !b.Valid() {
		t.Error("bounds should be valid")
	}
	if b.With(Energy, -3).Valid() {
		t.Error("negative bound must be invalid")
	}
}

// randomVector produces a bounded random cost vector for property tests.
func randomVector(r *rand.Rand) Vector {
	var v Vector
	for i := range v {
		v[i] = r.Float64() * 100
	}
	return v
}

func TestPropertyDominanceTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	objs := AllSet()
	f := func() bool {
		a, b, c := randomVector(r), randomVector(r), randomVector(r)
		// Force chains sometimes, otherwise the premise rarely holds.
		b = a.Add(randomVector(r).Scale(0.1))
		c = b.Add(randomVector(r).Scale(0.1))
		if a.Dominates(b, objs) && b.Dominates(c, objs) {
			return a.Dominates(c, objs)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyApproxDominanceComposition(t *testing.T) {
	// If a approx-dominates b with alpha1 and b approx-dominates c with
	// alpha2, then a approx-dominates c with alpha1*alpha2.
	r := rand.New(rand.NewSource(2))
	objs := AllSet()
	f := func() bool {
		c := randomVector(r)
		a1 := 1 + r.Float64()
		a2 := 1 + r.Float64()
		b := c.Scale(a2 * (0.9 + 0.1*r.Float64())) // within alpha2 of c
		a := b.Scale(a1 * (0.9 + 0.1*r.Float64())) // within alpha1 of b
		if a.ApproxDominates(b, a1, objs) && b.ApproxDominates(c, a2, objs) {
			return a.ApproxDominates(c, a1*a2, objs)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDominanceImpliesWeightedOrder(t *testing.T) {
	// Dominance implies lower-or-equal weighted cost for any non-negative
	// weights: the property that makes SelectBest on a Pareto set sound.
	r := rand.New(rand.NewSource(3))
	objs := AllSet()
	f := func() bool {
		a := randomVector(r)
		b := a.Add(randomVector(r)) // b >= a componentwise, so a dominates b
		var w Weights
		for i := range w {
			w[i] = r.Float64()
		}
		if !a.Dominates(b, objs) {
			return false
		}
		return w.Cost(a) <= w.Cost(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyApproxDominanceImpliesWeightedFactor(t *testing.T) {
	// c(a) approx-dominates c(b) with alpha implies C_W(a) <= alpha*C_W(b):
	// the inequality behind Corollary 1.
	r := rand.New(rand.NewSource(4))
	objs := AllSet()
	f := func() bool {
		b := randomVector(r)
		alpha := 1 + r.Float64()
		a := b.Scale(alpha * r.Float64()) // scaled by at most alpha
		if !a.ApproxDominates(b, alpha, objs) {
			return true
		}
		var w Weights
		for i := range w {
			w[i] = r.Float64()
		}
		return w.Cost(a) <= alpha*w.Cost(b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFormatOn(t *testing.T) {
	v := Vector{}.With(TotalTime, 1.5)
	got := v.FormatOn(NewSet(TotalTime))
	if got != "(total_time=1.5)" {
		t.Errorf("FormatOn = %q", got)
	}
	if v.String() == "" {
		t.Error("String must not be empty")
	}
}

// TestRespectsMatchesIDsOracle holds the bit-walking Respects and
// RespectsRelaxed against the loop over Set.IDs they replaced, kept here as
// the oracle: all 511 non-empty objective sets, random vectors and bounds
// salted with NaN, ±Inf and unbounded (+Inf) entries. A NaN on either side
// of a comparison never violates a bound, in both forms.
func TestRespectsMatchesIDsOracle(t *testing.T) {
	oracle := func(b Bounds, v Vector, alpha float64, objs Set) bool {
		for _, o := range objs.IDs() {
			if v[o] > b[o]*alpha {
				return false
			}
		}
		return true
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	r := rand.New(rand.NewSource(24))
	draw := func(unbounded float64) float64 {
		switch p := r.Float64(); {
		case p < unbounded:
			return math.Inf(1)
		case p < unbounded+0.15:
			return special[r.Intn(len(special))]
		}
		return 10 * r.Float64()
	}
	verdicts := [2]int{}
	for objs := Set(1); objs <= AllSet(); objs++ {
		for trial := 0; trial < 200; trial++ {
			var v Vector
			var b Bounds
			for o := range v {
				v[o], b[o] = draw(0), draw(0.5)
			}
			alpha := 1 + r.Float64()
			want := oracle(b, v, 1, objs)
			if got := b.Respects(v, objs); got != want {
				t.Fatalf("Respects(%v, %v) under %v = %v, the IDs loop says %v", v, objs, b, got, want)
			}
			if got, want := b.RespectsRelaxed(v, alpha, objs), oracle(b, v, alpha, objs); got != want {
				t.Fatalf("RespectsRelaxed(%v, %v, %v) under %v = %v, the IDs loop says %v", v, alpha, objs, b, got, want)
			}
			if want {
				verdicts[1]++
			} else {
				verdicts[0]++
			}
		}
	}
	if verdicts[0] < 1000 || verdicts[1] < 1000 {
		t.Fatalf("lopsided sample: %d violations, %d respects", verdicts[0], verdicts[1])
	}
	// Bits past the ninth objective select nothing, as with IDs.
	if stray := AllSet() + 1; !NoBounds().With(TotalTime, 1).Respects(Vector{}.With(TotalTime, 2), stray) {
		t.Error("a set bit outside the nine objectives was read as an objective")
	}
}

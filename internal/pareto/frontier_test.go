package pareto

import (
	"math"
	"testing"

	"moqo/internal/objective"
)

func vec(time, buf float64) objective.Vector {
	return objective.Vector{}.
		With(objective.TotalTime, time).
		With(objective.BufferFootprint, buf)
}

func TestFilterPareto(t *testing.T) {
	vs := []objective.Vector{
		vec(3, 0.5), vec(2, 1), vec(1, 2.5), vec(0.5, 4),
		vec(3, 2), vec(2.5, 3), vec(3.5, 1), vec(2, 1), // dominated + dup
	}
	got := FilterPareto(vs, testObjs)
	if len(got) != 4 {
		t.Fatalf("Pareto frontier has %d points, want 4: %v", len(got), got)
	}
	for _, v := range got {
		for _, w := range vs {
			if w.StrictlyDominates(v, testObjs) {
				t.Errorf("%v is dominated by %v", v, w)
			}
		}
	}
	if FilterPareto(nil, testObjs) != nil {
		t.Error("empty input should give empty frontier")
	}
}

func TestIsAlphaCover(t *testing.T) {
	ref := []objective.Vector{vec(1, 4), vec(2, 2), vec(4, 1)}
	// The reference covers itself at alpha 1.
	if !IsAlphaCover(ref, ref, 1, testObjs) {
		t.Error("a frontier must cover itself")
	}
	cand := []objective.Vector{vec(1.2, 4.8), vec(4.8, 1.2)}
	if !IsAlphaCover(cand, ref, 2.4, testObjs) {
		t.Error("candidate should cover at alpha 2.4 (vec(2,2) covered by (1.2,4.8)? 1.2<=2*2.4 and 4.8<=2*2.4)")
	}
	if IsAlphaCover(cand, ref, 1.1, testObjs) {
		t.Error("candidate should not cover at alpha 1.1")
	}
	if !IsAlphaCover(cand, nil, 1, testObjs) {
		t.Error("empty reference is always covered")
	}
	if IsAlphaCover(nil, ref, 100, testObjs) {
		t.Error("empty candidate covers nothing")
	}
}

func TestCoverFactor(t *testing.T) {
	ref := []objective.Vector{vec(1, 4), vec(4, 1)}
	cand := []objective.Vector{vec(1.5, 4), vec(4, 1)}
	got := CoverFactor(cand, ref, testObjs)
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("CoverFactor = %v, want 1.5", got)
	}
	// Self-cover has factor 1.
	if got := CoverFactor(ref, ref, testObjs); got != 1 {
		t.Errorf("self CoverFactor = %v, want 1", got)
	}
	// Consistency with IsAlphaCover.
	if !IsAlphaCover(cand, ref, 1.5+1e-9, testObjs) {
		t.Error("cover factor inconsistent with IsAlphaCover")
	}
	if IsAlphaCover(cand, ref, 1.5-1e-3, testObjs) {
		t.Error("cover factor not tight")
	}
}

func TestCoverFactorZeroComponent(t *testing.T) {
	ref := []objective.Vector{vec(0, 1)}
	cand := []objective.Vector{vec(1, 1)}
	if got := CoverFactor(cand, ref, testObjs); !math.IsInf(got, 1) {
		t.Errorf("zero component not matchable: CoverFactor = %v, want +Inf", got)
	}
	// A candidate that matches the zero exactly works.
	cand2 := []objective.Vector{vec(0, 2)}
	if got := CoverFactor(cand2, ref, testObjs); got != 2 {
		t.Errorf("CoverFactor = %v, want 2", got)
	}
}

package viz

import (
	"strings"
	"testing"

	"moqo/internal/objective"
)

func vec(t, b, l float64) objective.Vector {
	return objective.Vector{}.
		With(objective.TotalTime, t).
		With(objective.BufferFootprint, b).
		With(objective.TupleLoss, l)
}

func sample() []objective.Vector {
	return []objective.Vector{
		vec(100, 1e6, 0), vec(50, 2e6, 0.5), vec(20, 4e6, 0.99),
	}
}

func TestScatter3D(t *testing.T) {
	svg := Scatter3D(sample(), objective.TupleLoss, objective.BufferFootprint, objective.TotalTime, DefaultStyle("3d"))
	if got := strings.Count(svg, "<circle"); got != 3 {
		t.Errorf("SVG has %d markers, want 3", got)
	}
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("droplines missing")
	}
	for _, axis := range []string{"tuple_loss", "buffer_footprint", "total_time"} {
		if !strings.Contains(svg, axis) {
			t.Errorf("axis label %q missing", axis)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	// Must not panic or divide by zero.
	for _, vs := range [][]objective.Vector{nil, {}} {
		svg := Scatter3D(vs, objective.TotalTime, objective.Energy, objective.IOLoad, DefaultStyle(""))
		if !strings.Contains(svg, "</svg>") {
			t.Error("empty plot must still be well-formed")
		}
	}
}

func TestZeroVectors(t *testing.T) {
	vs := []objective.Vector{{}, {}}
	svg := Scatter3D(vs, objective.TotalTime, objective.Energy, objective.IOLoad, DefaultStyle(""))
	if strings.Contains(svg, "NaN") || strings.Contains(svg, "Inf") {
		t.Error("degenerate input produced NaN/Inf coordinates")
	}
}

func TestEscape(t *testing.T) {
	st := DefaultStyle("a<b & c>d")
	svg := Scatter3D(sample(), objective.TotalTime, objective.BufferFootprint, objective.TupleLoss, st)
	if strings.Contains(svg, "a<b") {
		t.Error("title not escaped")
	}
	if !strings.Contains(svg, "a&lt;b &amp; c&gt;d") {
		t.Error("escaped title missing")
	}
}

package tenant

import "sort"

// Window is a sliding window over the most recent latency samples (ms):
// the one ring behind the server-wide and the per-tenant p50/p99 gauges.
// It is not synchronized — the registry guards its tenants' windows with
// its own mutex, the server its own with another.
type Window struct {
	samples []float64
	next, n int
}

// NewWindow builds a window over the last size samples.
func NewWindow(size int) Window { return Window{samples: make([]float64, size)} }

// Record folds one sample in, displacing the oldest once the window is full.
func (w *Window) Record(ms float64) {
	w.samples[w.next] = ms
	w.next = (w.next + 1) % len(w.samples)
	if w.n < len(w.samples) {
		w.n++
	}
}

// Quantiles reports how many samples the window holds and their p50 and
// p99 (zeros while empty).
func (w *Window) Quantiles() (n int, p50, p99 float64) {
	if w.n == 0 {
		return 0, 0, 0
	}
	sorted := make([]float64, w.n)
	copy(sorted, w.samples[:w.n])
	sort.Float64s(sorted)
	return w.n, Percentile(sorted, 0.50), Percentile(sorted, 0.99)
}

// Percentile reads the p-quantile from an ascending-sorted sample
// (nearest-rank). /metrics and the scoreboard both read it, so they agree
// on what a percentile means.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"moqo/internal/server"
)

// Metric is one named measurement as the result line carries it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name. Units live next to the code
// that measures; the smoke test pins names and units against BENCHMARK.json.
type metricSet map[string]Metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = Metric{Value: value, Unit: unit}
}

// sample is one completed operation of a measured loop.
type sample struct {
	end time.Duration // completion time since the loop started
	lat time.Duration // client-side latency
	key int32         // instance the operation belongs to (shape, cold instance)
}

// quantile reads the p-quantile from an ascending sample by the rule the
// server's own /metrics uses, so the two agree on what a percentile means.
func quantile(sorted []float64, p float64) float64 { return server.Percentile(sorted, p) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// spread is the interquartile range as a share of the median: the
// run-to-run (here slice-to-slice) noise figure compare() holds a bound
// against.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMs returns the samples' latencies in milliseconds, ascending.
func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	sort.Float64s(out)
	return out
}

// tail returns the highest percentile of sorted that still has at least ten
// samples beyond it, among p99 and p99.9, and 0 for the ones it cannot
// support.
func tail(sorted []float64) (p99, p999 float64) {
	if len(sorted) >= 1000 {
		p99 = quantile(sorted, 0.99)
	}
	if len(sorted) >= 10000 {
		p999 = quantile(sorted, 0.999)
	}
	return p99, p999
}

// perKeyGeomean is the geometric mean over instance keys of each key's
// median latency in milliseconds, so every instance weighs the same
// however often or however long it ran.
func perKeyGeomean(samples []sample) float64 {
	byKey := map[int32][]float64{}
	for _, s := range samples {
		byKey[s.key] = append(byKey[s.key], ms(s.lat))
	}
	meds := make([]float64, 0, len(byKey))
	for _, v := range byKey {
		meds = append(meds, median(v))
	}
	return geomean(meds)
}

// timeSlices bins a loop's samples into n equal time slices by completion
// time: the serving workloads' unit of repetition within a run.
func timeSlices(samples []sample, total time.Duration, n int) []bin {
	width := total / time.Duration(n)
	bins := make([]bin, n)
	for i := range bins {
		bins[i].from, bins[i].to = time.Duration(i)*width, time.Duration(i+1)*width
	}
	for _, s := range samples {
		i := min(int(s.end/width), n-1)
		bins[i].samples = append(bins[i].samples, s)
	}
	return bins
}

// binMedians is the median latency in milliseconds of each bin.
func binMedians(bins []bin) []float64 {
	var out []float64
	for _, b := range bins {
		if len(b.samples) > 0 {
			out = append(out, quantile(latenciesMs(b.samples), 0.5))
		}
	}
	return out
}

// usage is a point reading of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// resetPeakRSS returns freed heap to the system and restarts the kernel's
// high-water mark of the resident set (VmHWM), so that the peak read later
// is the measured phase's and not the set-up's, whose reference-engine runs
// are the benchmark's own cost. Where the kernel offers no reset the mark
// keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident set's high-water mark since resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // KiB on Linux
}

// probe times fn in five batches of n calls and returns the median cost of
// one call in nanoseconds.
func probe(n int, fn func()) float64 {
	batches := make([]float64, 5)
	for b := range batches {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = float64(time.Since(start)) / float64(n)
	}
	return median(batches)
}

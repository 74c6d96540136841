package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The sandbox this benchmark runs in changes speed under it: the same
// dynamic program takes 10.6 ms in one five-second window and 12.8 ms or
// 17 ms in the next, with nothing else running, and whole runs differ by a
// fifth. A bound on a time cannot be held on such a clock. So every client
// interleaves its operations with a reference kernel — two small pieces of
// ordinary Go, none of it this repository's code — and every time-based
// end-to-end metric is reported normalised to the machine on which that
// kernel takes its nominal time: a latency measured in a slice is
// multiplied by the slice's speed factor, a rate divided by it. The raw
// values and the speed factor are kept in the result file beside the
// normalised ones. Counts, allocations and memory are not normalised.
//
// The kernel has two parts, timed separately, and the speed factor is the
// geometric mean of the two parts' factors. Part A fills 4096 integers
// from a hash and sorts them: branchy, high-IPC integer work in a 32 KiB
// buffer. Part B marshals a fixed map to JSON with the standard library:
// allocation, map iteration, byte appends. A first version — one
// dependent floating-point chain over a 256 KiB buffer — followed the
// machine's slow-downs only half way, because a latency-bound chain is not
// slowed by a busy sibling hyperthread the way real code is: over six runs
// each, normalised serve_hit throughput varied by 8.2 % (CV) with it and
// 4.2 % with this one, cold_w1 by 4.7 % and 1.8 %; raw, 10.7 % and 7.3 %.

const (
	// Nominal part times: about what this sandbox takes on a middling day.
	nominalSort = 225 * time.Microsecond
	nominalJSON = 70 * time.Microsecond
	// refEvery is how often a client takes a reading: about 0.3 ms in
	// every 20 ms, a 1.5 % tax on throughput that is the same on both
	// sides of any comparison.
	refEvery = 20 * time.Millisecond
)

// reading is one timed run of the reference kernel.
type reading struct {
	at         time.Duration // when, since the loop started
	sort, json time.Duration
}

// calibrator owns one client's kernel state and readings.
type calibrator struct {
	ints     []uint64
	readings []reading
	sink     int
}

func newCalibrator() *calibrator { return &calibrator{ints: make([]uint64, 4096)} }

// jsonFixture is what part B marshals: forty small operator-like records.
var jsonFixture = func() map[string]any {
	m := map[string]any{}
	for i := 0; i < 40; i++ {
		m[fmt.Sprintf("key%02d", i)] = map[string]any{
			"rows": float64(i) * 1.5, "op": "HashJ", "cost": []float64{1.5, 2.5, float64(i)},
		}
	}
	return m
}()

// read takes a reading at loop time at.
func (c *calibrator) read(at time.Duration) {
	start := time.Now()
	h := uint64(14695981039346656037)
	for i := range c.ints {
		h = (h ^ uint64(i)) * 1099511628211
		c.ints[i] = h
	}
	slices.Sort(c.ints)
	mid := time.Now()
	b, _ := json.Marshal(jsonFixture) // the fixture is marshalable
	end := time.Now()
	c.sink += len(b) + int(c.ints[0]&1)
	c.readings = append(c.readings, reading{at: at, sort: mid.Sub(start), json: end.Sub(mid)})
}

// due reports whether refEvery has passed since the last reading.
func (c *calibrator) due(at time.Duration) bool {
	return len(c.readings) == 0 || at-c.readings[len(c.readings)-1].at >= refEvery
}

// speed is the machine's speed over the readings taken in [from, to): 1 on
// the reference machine, below 1 on a slower one. all is the fallback when
// the span holds too few readings to take medians of.
func speed(readings []reading, from, to time.Duration, all float64) float64 {
	var a, b []float64
	for _, r := range readings {
		if r.at >= from && r.at < to {
			a, b = append(a, float64(r.sort)), append(b, float64(r.json))
		}
	}
	if len(a) < 5 {
		return all
	}
	return math.Sqrt(float64(nominalSort) / median(a) * float64(nominalJSON) / median(b))
}

// medianOf is the median of one part's time over the readings, in µs.
func medianOf(readings []reading, part func(reading) time.Duration) float64 {
	v := make([]float64, len(readings))
	for i, r := range readings {
		v[i] = us(part(r))
	}
	return median(v)
}

// overallSpeed is the speed over every reading.
func overallSpeed(readings []reading) float64 {
	return speed(readings, 0, math.MaxInt64, 1)
}

// kernelCost is what the readings themselves cost the loop, so that they can
// be taken out of its CPU and allocation counts: their summed duration, and
// their allocations at allocsPerReading each.
func kernelCost(readings []reading) (cpu time.Duration, mallocs uint64) {
	for _, r := range readings {
		cpu += r.sort + r.json
	}
	return cpu, uint64(len(readings)) * allocsPerReading()
}

// allocsPerReading counts one reading's heap allocations (json.Marshal of
// the fixture; the count is fixed for a Go version).
var allocsPerReading = sync.OnceValue(func() uint64 {
	c := newCalibrator()
	c.readings = make([]reading, 0, 128)
	c.read(0)
	const n = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.read(0)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs + n/2) / n
})

// during runs fn while a second goroutine takes a reading every refEvery,
// and returns the machine's speed over fn's duration: the normalisation of
// phases that are not closed loops (set-up, the restart cycles).
func (c *calibrator) during(fn func() error) (float64, error) {
	c.readings = c.readings[:0]
	stop, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			c.read(time.Since(start))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	return overallSpeed(c.readings), err
}

// bin is one unit of repetition of a loop — a time slice, or a round of
// the cold list — with the samples that completed in it.
type bin struct {
	samples  []sample
	from, to time.Duration
}

// normalise rescales a loop to the reference machine bin by bin: it returns
// the non-empty bins with normalised latencies, each one's normalised rate
// in operations per second (weight is the operations one sample stands
// for), and each one's speed factor.
func normalise(bins []bin, readings []reading, weight float64) (out []bin, rates, speeds []float64) {
	all := overallSpeed(readings)
	for _, b := range bins {
		if len(b.samples) == 0 {
			continue
		}
		sp := speed(readings, b.from, b.to, all)
		nb := bin{samples: make([]sample, len(b.samples)), from: b.from, to: b.to}
		for i, s := range b.samples {
			s.lat = time.Duration(float64(s.lat) * sp)
			nb.samples[i] = s
		}
		out = append(out, nb)
		rates = append(rates, weight*float64(len(b.samples))/(b.to-b.from).Seconds()/sp)
		speeds = append(speeds, sp)
	}
	return out, rates, speeds
}

// flatten concatenates the bins' samples.
func flatten(bins []bin) []sample {
	var out []sample
	for _, b := range bins {
		out = append(out, b.samples...)
	}
	return out
}

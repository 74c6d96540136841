package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// loopResult is what one measured closed loop observed.
type loopResult struct {
	samples   []sample  // successful operations only
	readings  []reading // reference-kernel timings taken between operations
	wall      time.Duration
	attempted int
	failed    int
	use       usage // process CPU and mallocs spent during the loop
}

// closedLoop runs the benchmark's load model: each of clients goroutines
// issues op(client, i) for i = 0, 1, ... and sends the next only after the
// previous one returned, until more(i, elapsed) says stop. op reports the
// instance it ran, its latency and whether the answer was right. A failed
// operation is counted and leaves no latency sample. Between operations,
// every refEvery, a client times the reference kernel (see calibrate.go).
// capHint sizes each client's sample buffer up front, so that the
// generator's own memory does not grow with the machine's speed.
func closedLoop(clients, capHint int, more func(i int, elapsed time.Duration) bool,
	op func(client, i int) (key int32, lat time.Duration, err error)) loopResult {
	type clientResult struct {
		samples   []sample
		cal       *calibrator
		attempted int
		failed    int
		firstErr  error
	}
	results := make([]clientResult, clients)
	for c := range results {
		results[c].samples = make([]sample, 0, capHint)
		results[c].cal = newCalibrator()
	}
	allocsPerReading() // measured outside the loop it is subtracted from
	before := readUsage()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for i := 0; ; i++ {
				elapsed := time.Since(start)
				if !more(i, elapsed) {
					break
				}
				if r.cal.due(elapsed) {
					r.cal.read(elapsed)
				}
				key, lat, err := op(c, i)
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.samples = append(r.samples, sample{end: time.Since(start), lat: lat, key: key})
			}
		}(c)
	}
	wg.Wait()
	out := loopResult{wall: time.Since(start)}
	after := readUsage()
	for c, r := range results {
		out.samples = append(out.samples, r.samples...)
		out.readings = append(out.readings, r.cal.readings...)
		out.attempted += r.attempted
		out.failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "client %d: first of %d failures: %v\n", c, r.failed, r.firstErr)
		}
	}
	// The loop's own CPU and allocations: the process's, less the kernel's.
	kernelCPU, kernelMallocs := kernelCost(out.readings)
	out.use = usage{cpu: after.cpu - before.cpu - kernelCPU, mallocs: after.mallocs - before.mallocs - kernelMallocs}
	return out
}

// joinLoops adds loop b to loop a, as if they had been one loop: b's
// completion times continue from a's end.
func joinLoops(a, b loopResult) loopResult {
	for _, s := range b.samples {
		s.end += a.wall
		a.samples = append(a.samples, s)
	}
	for _, r := range b.readings {
		r.at += a.wall
		a.readings = append(a.readings, r)
	}
	a.wall += b.wall
	a.attempted += b.attempted
	a.failed += b.failed
	a.use.cpu += b.use.cpu
	a.use.mallocs += b.use.mallocs
	return a
}

// forSeconds is the stop rule of the serving loops.
func forSeconds(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed < d }
}

// loopOverheadNs is the cost of one turn of closedLoop around an empty
// operation: what the generator itself adds to every sample.
func loopOverheadNs() float64 {
	const n = 200000
	res := closedLoop(1, n, func(i int, _ time.Duration) bool { return i < n },
		func(_, _ int) (int32, time.Duration, error) { return 0, 0, nil })
	return float64(res.wall) / n
}

package bench

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestChaosAvailability runs a scaled-down disk-chaos experiment end to
// end: both arms must stay fully available through the dead disk, every
// answer must match the fault-free reference, the breaker arm must
// actually trip and quarantine the device, and the no-breaker baseline
// must keep hammering it.
func TestChaosAvailability(t *testing.T) {
	spec := ChaosSpec{
		Requests:  24,
		Tables:    6,
		Shapes:    4,
		DeadDelay: 2 * time.Millisecond,
	}
	pts, sum, err := ChaosAvailability(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Arm != "breaker" || pts[1].Arm != "no-breaker" {
		t.Fatalf("unexpected points: %+v", pts)
	}
	breaker, baseline := pts[0], pts[1]

	for _, p := range pts {
		if p.Availability != 1 || p.Errors != 0 {
			t.Errorf("%s: availability %.2f with %d errors — store faults must never fail serving",
				p.Arm, p.Availability, p.Errors)
		}
		if p.Mismatches != 0 {
			t.Errorf("%s: %d answers differed from the fault-free reference", p.Arm, p.Mismatches)
		}
	}
	if breaker.BreakerTrips == 0 {
		t.Error("breaker arm never tripped on a dead disk")
	}
	if breaker.Skipped == 0 {
		t.Error("breaker arm skipped no store operations")
	}
	if baseline.BreakerTrips != 0 || baseline.Skipped != 0 || baseline.BreakerState != "closed" {
		t.Errorf("baseline breaker moved (trips %d, skipped %d, state %q) under a threshold nothing reaches",
			baseline.BreakerTrips, baseline.Skipped, baseline.BreakerState)
	}
	if baseline.DeadOps <= breaker.DeadOps {
		t.Errorf("baseline attempted %d dead-device ops, breaker %d — quarantine had no effect",
			baseline.DeadOps, breaker.DeadOps)
	}

	table := RenderChaos(pts, sum)
	if !strings.Contains(table, "no-breaker") {
		t.Errorf("render missing baseline arm:\n%s", table)
	}
	file, err := benchJSON("chaos", "moqod-disk-chaos-availability", pts, sum)
	if err != nil {
		t.Fatal(err)
	}
	raw := file.Data
	var decoded struct {
		Benchmark string `json:"benchmark"`
		Summary   ChaosSummary
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Benchmark != "moqod-disk-chaos-availability" {
		t.Errorf("benchmark name %q", decoded.Benchmark)
	}
}

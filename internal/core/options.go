package core

import (
	"fmt"
	"time"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// Options configures an optimization run.
type Options struct {
	// Objectives is the set of active cost objectives (required).
	Objectives objective.Set

	// Alpha is the user-defined approximation precision αU for RTA and
	// IRA (>= 1 and finite). Ignored by the exact algorithms.
	Alpha float64

	// Timeout bounds the optimization time; zero means no timeout. When
	// the timeout fires, the optimizer degrades as described in paper
	// Section 5.1: every table set not yet treated gets only a single
	// (best-weighted) plan, so optimization finishes quickly.
	Timeout time.Duration

	// AllowSampling includes the sampling scan operators in the plan
	// space. Defaults (via Normalize) to whether tuple loss is an active
	// objective: without loss as an objective nothing penalizes sampling,
	// and a result-discarding plan would trivially win every other
	// objective.
	AllowSampling *bool

	// MaxDOP caps the degree of parallelism of parallel operators.
	// Defaults to plan.MaxDOP (4 cores, as in the paper).
	MaxDOP int

	// Workers shards each cardinality level of the dynamic program across
	// this many goroutines. All table sets of cardinality k depend only on
	// sets of cardinality < k, so levels parallelize without weakening any
	// approximation guarantee, and results are identical for every Workers
	// value (modulo timeout timing). 0 defaults to 1 (sequential); pass
	// runtime.NumCPU() to use the whole machine.
	Workers int

	// Shared, when non-nil, attaches a cross-query shared memo: completed
	// Pareto archives are looked up and published under canonical
	// subproblem keys, so runs over the same catalog that join overlapping
	// table sets skip each other's solved subproblems. Results are
	// bit-for-bit unchanged (see SharedMemo); only the effort stats
	// (Considered, EnumSplits — and SharedMemoHits, which reports the
	// sets served from the memo) reflect the skipped work. Like Workers,
	// this knob is excluded from every cache key.
	Shared *SharedMemo

	// CaptureSnapshot is ignored: every completed EXA, RTA, RTAVector and
	// IRA run returns its Result.Snapshot. The field stays only because the
	// benchmark module still sets it (benchmark/probes.go); it goes when
	// the benchmark stops reading the product's internals.
	CaptureSnapshot bool
}

// Normalize validates the options and fills in defaults.
func (o Options) Normalize() (Options, error) {
	if o.Objectives.Len() == 0 {
		return o, fmt.Errorf("core: no active objectives")
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if !alphaValid(o.Alpha) {
		if o.Alpha < 1 {
			return o, fmt.Errorf("core: approximation precision %v < 1", o.Alpha)
		}
		return o, fmt.Errorf("core: approximation precision %v is not finite", o.Alpha)
	}
	if o.MaxDOP == 0 {
		o.MaxDOP = plan.MaxDOP
	}
	if o.MaxDOP < 1 || o.MaxDOP > plan.MaxDOP {
		return o, fmt.Errorf("core: MaxDOP %d out of range [1,%d]", o.MaxDOP, plan.MaxDOP)
	}
	if o.AllowSampling == nil {
		v := o.Objectives.Contains(objective.TupleLoss)
		o.AllowSampling = &v
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 1 {
		return o, fmt.Errorf("core: Workers %d out of range (must be >= 1, or 0 for the default)", o.Workers)
	}
	return o, nil
}

// sampling reports whether sampling scans are in the plan space.
func (o Options) sampling() bool { return o.AllowSampling != nil && *o.AllowSampling }

// Bool returns a pointer to b, for filling Options.AllowSampling.
func Bool(b bool) *bool { return &b }

// storedPlanBytes is the estimated memory footprint of one stored plan,
// used for the paper's memory-consumption metric: a compact entry record
// (operator code plus two (table set, index) sub-plan references) plus the
// nine-dimensional cost row in the archive's flat backing array — O(1)
// space, as in the proof of Theorem 1.
const storedPlanBytes = 104

// Stats reports the effort of one optimization run, mirroring the metrics
// of the paper's Figures 5, 9 and 10.
type Stats struct {
	// Duration is the wall-clock optimization time.
	Duration time.Duration
	// Considered counts constructed candidate plans (Combine calls).
	Considered int
	// Stored counts plans stored in archives at the end of the run,
	// summed over all table sets.
	Stored int
	// MemoryBytes estimates the memory allocated for stored plans.
	MemoryBytes int64
	// ParetoLast is the archive size of the last table set that was
	// treated completely (the full query's set when no timeout fired) —
	// the "number of Pareto plans" metric of Figures 5 and 9.
	ParetoLast int
	// EnumSets counts the table sets visited while materializing the
	// search space: exactly the number of connected sets of the join
	// graph (the walk touches only what it keeps), or fewer when the
	// deadline cut the walk short.
	EnumSets int
	// EnumSplits counts the ordered split pairs visited by the candidate
	// loops, including pairs discarded before any candidate plan was
	// costed (disconnected or unstored halves). It is the work the per-set
	// dispatch between the scan, edge-cut and traversal loops changes;
	// Considered — candidates actually constructed — does not depend on
	// which loop ran.
	EnumSplits int
	// SharedMemoHits counts the table sets served from an attached
	// Options.Shared memo instead of being enumerated (0 when no memo is
	// attached). Each hit removes that set's share of Considered and
	// EnumSplits from the run.
	SharedMemoHits int
	// TimedOut reports whether the run hit its timeout and degraded.
	TimedOut bool
	// ReusedFrontier reports that the result was served from a cached
	// FrontierSnapshot (a SelectBest scan, or an IRA refinement seeded
	// from one) instead of a cold dynamic program. The effort counters
	// (Considered, Stored, EnumSets, ...) then describe the originating
	// run; Duration is the serve time of the reuse path itself.
	ReusedFrontier bool
	// Iterations counts IRA iterations (1 for non-iterative algorithms).
	Iterations int
	// IterationDetail records one entry per IRA iteration (empty for
	// non-iterative algorithms): the precision used, the iteration's
	// duration, and the size of the approximate Pareto set it produced.
	// It documents the geometric refinement policy of Theorem 7 — each
	// iteration should dominate the cost of all previous ones.
	IterationDetail []IterationInfo
}

// IterationInfo describes one IRA refinement iteration.
type IterationInfo struct {
	// Alpha is the Pareto-set precision α(i) of the iteration.
	Alpha float64
	// Duration is the iteration's wall-clock time.
	Duration time.Duration
	// Considered counts the plans constructed in this iteration.
	Considered int
	// FrontierSize is the approximate Pareto set size for the full query.
	FrontierSize int
}

// merge folds the stats of one IRA iteration into the accumulated stats.
func (s *Stats) merge(it Stats) {
	s.Duration += it.Duration
	s.Considered += it.Considered
	s.EnumSets += it.EnumSets
	s.EnumSplits += it.EnumSplits
	s.SharedMemoHits += it.SharedMemoHits
	// Memory is reported for the last iteration only: earlier iterations'
	// memory is reused (paper Section 8: "the reported numbers for memory
	// consumption refer to the memory reserved in the last iteration").
	s.Stored = it.Stored
	s.MemoryBytes = it.MemoryBytes
	s.ParetoLast = it.ParetoLast
	s.TimedOut = s.TimedOut || it.TimedOut
	s.Iterations++
}

package bench

import (
	"fmt"
	"strings"
	"time"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
	"moqo/internal/synthetic"
)

// TopologySpec parameterizes the topology-scaling experiment: one RTA run
// of the engine per join-graph topology and query size, set against the
// work an exhaustive enumeration — every subset as a level candidate,
// every 2-split of every set — would have done on the same query. That
// work is computed (ExhaustiveWork), not run: the engine has one
// enumeration, and the counts it is held against are exact.
//
// Sizes are bounded by the synthetic generator's caps (40 tables for
// chains and cycles, 20 for the shapes whose connected sets are
// exponentially many), not by the experiment.
type TopologySpec struct {
	// Arms lists the (topology, sizes) grid. Defaults to chains and
	// cycles up to 24 tables, stars to 14 (their DP is inherently
	// exponential in the number of sets, not a scan artifact), random
	// trees to 18, and cliques to 10 (on a clique every subset is
	// connected, so the engine can only match, not beat, the exhaustive
	// count — the honest baseline case).
	Arms []TopologyArm
	// Workers per run (default 1: the experiment measures enumeration,
	// not parallel speedup).
	Workers int
	// Timeout per run (default 60s; a timed-out run is reported as a
	// lower bound).
	Timeout time.Duration
	// Seed of the synthetic workload.
	Seed int64
}

// The RTA runs of the experiment use two objectives and a coarse precision:
// small archives, so enumeration, not candidate costing, dominates.
var topologyObjectives = objective.NewSet(objective.TotalTime, objective.BufferFootprint)

const (
	topologyAlpha   = 3
	topologyMaxRows = 1e5 // maximal base-table cardinality
)

// TopologyArm is one topology of the experiment with its query sizes.
type TopologyArm struct {
	Shape  synthetic.Shape
	Tables []int
}

// withDefaults fills in the defaults.
func (s TopologySpec) withDefaults() TopologySpec {
	if len(s.Arms) == 0 {
		s.Arms = []TopologyArm{
			{synthetic.Chain, []int{16, 20, 24}},
			{synthetic.Cycle, []int{16, 20, 24}},
			{synthetic.Star, []int{10, 12, 14}},
			{synthetic.RandomTree, []int{14, 16, 18}},
			{synthetic.Clique, []int{8, 10}},
		}
	}
	if s.Workers == 0 {
		s.Workers = 1
	}
	if s.Timeout == 0 {
		s.Timeout = 60 * time.Second
	}
	return s
}

// TopologyRun is the measured engine run of a topology point.
type TopologyRun struct {
	// Ms is the wall-clock optimization time.
	Ms float64 `json:"ms"`
	// EnumSets counts table sets visited while materializing the levels:
	// the connected count.
	EnumSets int `json:"enum_sets"`
	// EnumSplits counts ordered split pairs visited by the candidate
	// loops, including pairs discarded before costing.
	EnumSplits int  `json:"enum_splits"`
	Considered int  `json:"considered"`
	Frontier   int  `json:"frontier"`
	TimedOut   bool `json:"timed_out"`
}

// TopologyPoint is one (topology, size) cell of the experiment.
type TopologyPoint struct {
	Shape  string  `json:"shape"`
	N      int     `json:"tables"`
	Alpha  float64 `json:"alpha"`
	Ntotal int     `json:"connected_sets"` // materialized table sets

	Run TopologyRun `json:"run"`

	// ExhaustiveSets and ExhaustiveSplits are what an exhaustive
	// enumeration visits on the same query (ExhaustiveWork).
	ExhaustiveSets   int `json:"exhaustive_sets"`
	ExhaustiveSplits int `json:"exhaustive_splits"`

	// SplitReduction is ExhaustiveSplits / Run.EnumSplits — the headline
	// metric: how much split-scanning work the join graph's structure
	// saves.
	SplitReduction float64 `json:"split_reduction"`
	// SetScanReduction is the same ratio for level materialization.
	SetScanReduction float64 `json:"set_scan_reduction"`
}

// ExhaustiveWork returns what an exhaustive enumeration of q visits: all
// 2^n - 1 non-empty subsets while materializing the levels, and all
// 2^|s| - 2 ordered 2-splits of every connected set s with |s| >= 2 in
// the candidate loop — what a subset-scanning enumeration counts in
// Stats.EnumSets and Stats.EnumSplits on a connected join graph
// (TestExhaustiveWorkMatchesMeasured holds the formula to the last such
// measurement).
func ExhaustiveWork(q *query.Query) (sets, splits int) {
	q.EachConnectedSubset(q.AllTables(), func(s query.TableSet) bool {
		if k := s.Len(); k >= 2 {
			splits += 1<<k - 2
		}
		return true
	})
	return 1<<q.NumRelations() - 1, splits
}

// TopologyScaling measures enumeration work and wall time of the engine
// across join-graph topologies and sizes, next to the exhaustive
// enumeration's work on the same queries.
func TopologyScaling(spec TopologySpec) ([]TopologyPoint, error) {
	spec = spec.withDefaults()
	var out []TopologyPoint
	for _, arm := range spec.Arms {
		for _, n := range arm.Tables {
			_, q, err := synthetic.Build(synthetic.Spec{
				Shape:   arm.Shape,
				Tables:  n,
				MaxRows: topologyMaxRows,
				Seed:    spec.Seed,
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := core.RTA(costmodel.NewDefault(q), objective.UniformWeights(topologyObjectives), core.Options{
				Objectives: topologyObjectives,
				Alpha:      topologyAlpha,
				Workers:    spec.Workers,
				Timeout:    spec.Timeout,
			})
			if err != nil {
				return nil, fmt.Errorf("%s-%d: %w", arm.Shape, n, err)
			}
			pt := TopologyPoint{
				Shape: arm.Shape.String(),
				N:     n,
				Alpha: topologyAlpha,
				Run: TopologyRun{
					Ms:         float64(time.Since(start)) / float64(time.Millisecond),
					EnumSets:   res.Stats.EnumSets,
					EnumSplits: res.Stats.EnumSplits,
					Considered: res.Stats.Considered,
					Frontier:   res.Stats.ParetoLast,
					TimedOut:   res.Stats.TimedOut,
				},
			}
			pt.Ntotal = pt.Run.EnumSets
			pt.ExhaustiveSets, pt.ExhaustiveSplits = ExhaustiveWork(q)
			if pt.Run.EnumSplits > 0 {
				pt.SplitReduction = float64(pt.ExhaustiveSplits) / float64(pt.Run.EnumSplits)
			}
			if pt.Run.EnumSets > 0 {
				pt.SetScanReduction = float64(pt.ExhaustiveSets) / float64(pt.Run.EnumSets)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// RenderTopology renders the topology measurements as a text table.
func RenderTopology(pts []TopologyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %3s %10s %12s %12s %9s %10s\n",
		"shape", "n", "sets", "scan splits", "splits", "reduction", "ms")
	for _, p := range pts {
		mark := ""
		if p.Run.TimedOut {
			mark = ">" // timed out: numbers are lower bounds
		}
		fmt.Fprintf(&b, "%10s %3d %10d %12d %12d %8.0fx %10s\n",
			p.Shape, p.N, p.Ntotal, p.ExhaustiveSplits, p.Run.EnumSplits, p.SplitReduction,
			fmt.Sprintf("%s%.1f", mark, p.Run.Ms))
	}
	return b.String()
}

package bench

import (
	"fmt"
	"strings"
	"time"

	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
)

// TopologySpec parameterizes the topology-scaling experiment: the same
// RTA run once with the exhaustive subset-scanning enumeration and once
// with the graph-aware csg-cmp enumeration, across join-graph
// topologies and query sizes. The point of the experiment is the
// asymptotic enumeration win — candidate construction is identical
// between the arms (the strategies visit the same splits in the same
// order), so every difference in scanned sets/splits and wall time is
// enumeration overhead.
//
// Keep arm sizes at or below ~26 tables: the exhaustive arm's level
// materialization Gosper-scans all 2^n subsets on one goroutine, and
// past that size the scan cannot finish within any reasonable Timeout —
// it now degrades to the chain fallback instead of running for hours,
// but a degraded arm measures the fallback, not the scan, and the
// strategy comparison loses its meaning (cmd/experiments enforces the
// cap on its -tables override).
type TopologySpec struct {
	// Arms lists the (topology, sizes) grid. Defaults to chains and
	// cycles up to 24 tables (past the old 20-table practical ceiling),
	// stars to 14 (their DP is inherently exponential in the number of
	// sets, not a scan artifact), random trees to 18, and cliques to 10
	// (on a clique every subset is connected, so the graph-aware arm can
	// only match, not beat, the scan — the honest baseline case).
	Arms []TopologyArm
	// Workers per run (default 1: the experiment measures enumeration,
	// not parallel speedup).
	Workers int
	// Timeout per run (default 60s; a timed-out arm is reported as a
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

// TopologyRun is one measured enumeration arm of a topology point.
type TopologyRun struct {
	// Ms is the wall-clock optimization time.
	Ms float64 `json:"ms"`
	// EnumSets counts table sets scanned while materializing the levels
	// (2^n - 1 for the exhaustive scan, the connected count for graph).
	EnumSets int `json:"enum_sets"`
	// EnumSplits counts ordered split pairs visited by the candidate
	// loops, including pairs discarded before costing.
	EnumSplits int `json:"enum_splits"`
	// Considered counts constructed candidate plans — identical between
	// the arms by the order-preserving csg-cmp emission.
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

	Exhaustive TopologyRun `json:"exhaustive"`
	Graph      TopologyRun `json:"graph"`
	// Auto is the density-adaptive arm (EnumAuto): per table set it picks
	// subset scan, tree edge-cut enumeration, or complement-pruned
	// traversal — the arm a caller gets by default.
	Auto TopologyRun `json:"auto"`

	// SplitReduction is Exhaustive.EnumSplits / Graph.EnumSplits — the
	// headline metric: how much split-scanning work the join graph's
	// structure saves.
	SplitReduction float64 `json:"split_reduction"`
	// SetScanReduction is the same ratio for level materialization.
	SetScanReduction float64 `json:"set_scan_reduction"`
	// Speedup is Exhaustive.Ms / Graph.Ms.
	Speedup float64 `json:"speedup"`
	// AutoSpeedup is Exhaustive.Ms / Auto.Ms — what the adaptive
	// enumeration delivers end to end, including the mid-density cells
	// where pure traversal loses to the scan.
	AutoSpeedup float64 `json:"auto_speedup"`
}

// TopologyScaling measures enumeration work and wall time across
// join-graph topologies and sizes, with the exhaustive and the
// graph-aware strategy on identical queries. Besides the reductions it
// double-checks the strategy-equivalence claim: both arms must
// construct exactly the same number of candidate plans.
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
			w := objective.UniformWeights(topologyObjectives)
			pt := TopologyPoint{Shape: arm.Shape.String(), N: n, Alpha: topologyAlpha}

			run := func(strategy core.EnumerationStrategy) (TopologyRun, error) {
				m := costmodel.NewDefault(q)
				start := time.Now()
				res, err := core.RTA(m, w, core.Options{
					Objectives:  topologyObjectives,
					Alpha:       topologyAlpha,
					Workers:     spec.Workers,
					Timeout:     spec.Timeout,
					Enumeration: strategy,
				})
				if err != nil {
					return TopologyRun{}, err
				}
				return TopologyRun{
					Ms:         float64(time.Since(start)) / float64(time.Millisecond),
					EnumSets:   res.Stats.EnumSets,
					EnumSplits: res.Stats.EnumSplits,
					Considered: res.Stats.Considered,
					Frontier:   res.Stats.ParetoLast,
					TimedOut:   res.Stats.TimedOut,
				}, nil
			}
			if pt.Exhaustive, err = run(core.EnumExhaustive); err != nil {
				return nil, fmt.Errorf("%s-%d exhaustive: %w", arm.Shape, n, err)
			}
			if pt.Graph, err = run(core.EnumGraph); err != nil {
				return nil, fmt.Errorf("%s-%d graph: %w", arm.Shape, n, err)
			}
			if pt.Auto, err = run(core.EnumAuto); err != nil {
				return nil, fmt.Errorf("%s-%d auto: %w", arm.Shape, n, err)
			}
			pt.Ntotal = pt.Graph.EnumSets
			if pt.Graph.EnumSplits > 0 {
				pt.SplitReduction = float64(pt.Exhaustive.EnumSplits) / float64(pt.Graph.EnumSplits)
			}
			if pt.Graph.EnumSets > 0 {
				pt.SetScanReduction = float64(pt.Exhaustive.EnumSets) / float64(pt.Graph.EnumSets)
			}
			if pt.Graph.Ms > 0 {
				pt.Speedup = pt.Exhaustive.Ms / pt.Graph.Ms
			}
			if pt.Auto.Ms > 0 {
				pt.AutoSpeedup = pt.Exhaustive.Ms / pt.Auto.Ms
			}
			if !pt.Exhaustive.TimedOut && !pt.Graph.TimedOut &&
				pt.Exhaustive.Considered != pt.Graph.Considered {
				return nil, fmt.Errorf("%s-%d: strategies considered %d vs %d candidates — equivalence broken",
					arm.Shape, n, pt.Exhaustive.Considered, pt.Graph.Considered)
			}
			if !pt.Exhaustive.TimedOut && !pt.Auto.TimedOut &&
				pt.Exhaustive.Considered != pt.Auto.Considered {
				return nil, fmt.Errorf("%s-%d: auto considered %d vs exhaustive %d candidates — equivalence broken",
					arm.Shape, n, pt.Auto.Considered, pt.Exhaustive.Considered)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// RenderTopology renders the topology measurements as a text table.
func RenderTopology(pts []TopologyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %3s %12s %12s %9s %12s %12s %12s %8s %8s\n",
		"shape", "n", "scan splits", "graph splits", "reduction", "scan (ms)", "graph (ms)", "auto (ms)", "speedup", "auto spd")
	for _, p := range pts {
		mark := ""
		if p.Exhaustive.TimedOut || p.Graph.TimedOut || p.Auto.TimedOut {
			mark = ">" // timed out: numbers are lower bounds
		}
		fmt.Fprintf(&b, "%10s %3d %12d %12d %8.0fx %12s %12s %12s %7.2fx %7.2fx\n",
			p.Shape, p.N, p.Exhaustive.EnumSplits, p.Graph.EnumSplits, p.SplitReduction,
			fmt.Sprintf("%s%.1f", mark, p.Exhaustive.Ms),
			fmt.Sprintf("%s%.1f", mark, p.Graph.Ms),
			fmt.Sprintf("%s%.1f", mark, p.Auto.Ms),
			p.Speedup, p.AutoSpeedup)
	}
	return b.String()
}

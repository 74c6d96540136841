package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// This file preserves the pre-refactor, tree-allocating dynamic program:
// every candidate heap-allocates a full *plan.Node and archives are the
// pointer-backed pareto.Archive, which nothing else outside tests names.
// It exists as the oracle:
//
//   - differential testing: the flat engine must produce frontiers
//     identical to this implementation, candidate for candidate;
//   - the scoreboard (benchmark/cold.go): every cold_w1/cold_wn answer is
//     checked against ReferenceEXA's optimum within the α guarantee.
//
// It is sequential and supports no timeout, cancellation or degraded
// mode. It walks the engine's levels (enumerate) but splits each set its
// own way — every subset, kept when a join edge crosses it — so it
// certifies the engine's candidate loops against their definition.

// ReferenceEXA runs the exact multi-objective dynamic program in the
// pre-refactor representation (see the file comment). The result's
// frontier is canonically sorted like the flat engine's, so the two are
// directly comparable.
func ReferenceEXA(m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	return referenceRun(m, w, b, opts, 1)
}

// ReferenceRTA runs the representative-tradeoffs algorithm in the
// pre-refactor representation: internal pruning precision
// αi = Alpha^(1/|Q|), exactly as RTA.
func ReferenceRTA(m *costmodel.Model, w objective.Weights, opts Options) (Result, error) {
	opts2, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	n := m.Query().NumRelations()
	alphaI := math.Pow(opts2.Alpha, 1/float64(n))
	if alphaI < 1 {
		alphaI = 1
	}
	return referenceRun(m, w, objective.NoBounds(), opts, alphaI)
}

func referenceRun(m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options, alphaI float64) (Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	if !w.Valid() || !b.Valid() {
		return Result{}, fmt.Errorf("core: invalid weights or bounds")
	}
	q := m.Query()
	if err := q.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	enum := enumerate(q, nil)
	memo := make(map[query.TableSet]*pareto.Archive, enum.total)
	newArchive := func() *pareto.Archive { return pareto.NewArchive(opts.Objectives, alphaI) }

	considered := 0
	for k := 1; k <= enum.n; k++ {
		for _, s := range enum.levels[k] {
			a := newArchive()
			if s.Single() {
				for _, p := range m.ScanAlternatives(s.First(), opts.sampling()) {
					considered++
					a.Insert(p)
				}
			} else {
				referenceCandidates(m, opts, memo, s, func(p *plan.Node) {
					considered++
					a.Insert(p)
				})
			}
			memo[s] = a
		}
	}

	final := memo[enum.all]
	stored := 0
	for _, a := range memo {
		stored += a.Len()
	}
	// The oracle orders and selects over its own trees, independently of
	// the flat path it certifies, and only then takes the result's shape.
	plans := append([]*plan.Node(nil), final.Plans()...)
	sort.SliceStable(plans, func(i, j int) bool {
		return pareto.CompareCanonical(plans[i].Cost, plans[j].Cost) < 0
	})
	f := &Frontier{objs: opts.Objectives, all: enum.all}
	f.inserted, f.rejected, f.evicted = final.Stats()
	for _, p := range plans {
		f.costs = append(f.costs, p.Cost[:]...)
	}
	f.materialize.Do(func() { f.plans = plans })
	best := pareto.SelectBest(plans, w, b, opts.Objectives)
	return Result{
		Best:     best,
		BestRow:  int32(slices.Index(plans, best)),
		Frontier: f,
		Stats: Stats{
			Duration:    time.Since(start),
			Considered:  considered,
			Stored:      stored,
			MemoryBytes: int64(stored) * storedPlanBytes,
			ParetoLast:  final.Len(),
			Iterations:  1,
		},
	}, nil
}

// referenceCandidates is the pre-refactor candidate loop: every
// predicate-connected split of s with stored sub-plans, every join
// operator and DOP, every pair of stored sub-plans — each candidate built
// as a fresh *plan.Node.
func referenceCandidates(m *costmodel.Model, opts Options, memo map[query.TableSet]*pareto.Archive, s query.TableSet, fn func(*plan.Node)) {
	q := m.Query()
	s.EachSubset(func(left, right query.TableSet) bool {
		al, ar := memo[left], memo[right]
		if al == nil || ar == nil || al.Len() == 0 || ar.Len() == 0 {
			return true
		}
		// The pre-refactor loop tested splits via the edge-list
		// materialization; kept as-is so the reference arm measures the
		// original cost profile.
		if len(q.CrossingEdges(left, right)) == 0 {
			return true
		}
		if right.Single() {
			if rel := right.First(); m.InnerIndexColumn(left, rel) != "" {
				for _, pl := range al.Plans() {
					fn(m.NewIndexNL(pl, rel))
				}
			}
		}
		for _, pl := range al.Plans() {
			for _, pr := range ar.Plans() {
				for _, alg := range joinAlgs {
					for dop := 1; dop <= opts.MaxDOP; dop++ {
						fn(m.NewJoin(alg, dop, pl, pr))
					}
				}
			}
		}
		return true
	})
}

package core

import (
	"fmt"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/workload"
)

// oracleMemo is what the map-cached oracle reads: the entry and the cost
// vector of the idx-th plan stored for a table set.
type oracleMemo interface {
	EntryAt(s query.TableSet, idx int32) plan.Entry
	CostAt(s query.TableSet, idx int32) objective.Vector
}

// oracleRef identifies one stored plan of an oracleMemo.
type oracleRef struct {
	set query.TableSet
	idx int32
}

// mapMaterializer is the oracle of plan.Materializer: each (table set,
// index) is built once, as a node of its own, and cached in a map; every
// index-nested-loop join gets an index-probe inner of its own.
type mapMaterializer struct {
	memo  oracleMemo
	cache map[oracleRef]*plan.Node
}

func (mt *mapMaterializer) plan(s query.TableSet, idx int32) *plan.Node {
	ref := oracleRef{s, idx}
	if n, ok := mt.cache[ref]; ok {
		return n
	}
	e := mt.memo.EntryAt(s, idx)
	n := &plan.Node{Tables: s, Cost: mt.memo.CostAt(s, idx)}
	if e.IsScan() {
		n.Scan, n.SampleRate = e.ScanOp()
		n.Relation = s.First()
	} else {
		n.Join, n.DOP = e.JoinOp()
		if e.RightIdx == plan.SyntheticInner {
			n.Right = &plan.Node{Tables: e.RightSet, Scan: plan.IndexScan, Relation: e.RightSet.First()}
		} else {
			n.Right = mt.plan(e.RightSet, e.RightIdx)
		}
		n.Left = mt.plan(e.LeftSet, e.LeftIdx)
	}
	mt.cache[ref] = n
	return n
}

// oraclePlans materializes the n frontier rows of table set all through
// the map-cached oracle.
func oraclePlans(m oracleMemo, all query.TableSet, n int) []*plan.Node {
	mt := &mapMaterializer{memo: m, cache: make(map[oracleRef]*plan.Node)}
	out := make([]*plan.Node, n)
	for i := range out {
		out[i] = mt.plan(all, int32(i))
	}
	return out
}

// frontierOracle reads a frontier's own rows and closed sub-memo by table
// set and index, not by slot.
type frontierOracle struct{ f *Frontier }

func (m frontierOracle) EntryAt(t query.TableSet, idx int32) plan.Entry {
	if t == m.f.all {
		return m.f.entries[idx]
	}
	return m.f.subs.find(t).entries[idx]
}

func (m frontierOracle) CostAt(t query.TableSet, idx int32) objective.Vector {
	if t == m.f.all {
		return m.f.CostAt(idx)
	}
	costs := m.f.subs.find(t).costs
	return objective.Vector(costs[int(idx)*costStride : (int(idx)+1)*costStride])
}

// engineOracle reads a finished run's memo before its frontier is
// extracted: the full set's rows in canonical order, every other set's
// archive as stored.
type engineOracle struct {
	memo  *memoTable
	all   query.TableSet
	flat  *pareto.FlatArchive
	order []int32
}

func (m engineOracle) EntryAt(t query.TableSet, idx int32) plan.Entry {
	if t == m.all {
		return m.flat.EntryAt(m.order[idx])
	}
	return m.memo.lookup(t).EntryAt(idx)
}

func (m engineOracle) CostAt(t query.TableSet, idx int32) objective.Vector {
	if t == m.all {
		return m.flat.CostAt(m.order[idx])
	}
	return m.memo.lookup(t).CostAt(idx)
}

// captureOracle runs one instance and returns its result together with the
// oracle's trees, built over the run's memo just before its frontier was
// extracted (IRA: the memo of the iteration it returns).
func captureOracle(t *testing.T, run func() (Result, error)) (Result, []*plan.Node) {
	t.Helper()
	var oracle []*plan.Node
	beforeExtract = func(e *engine, flat *pareto.FlatArchive) {
		if oracle != nil {
			t.Fatal("a run extracted two frontiers")
		}
		m := engineOracle{memo: e.memo, all: e.enum.all, flat: flat, order: flat.CanonicalOrder()}
		oracle = oraclePlans(m, e.enum.all, flat.Len())
	}
	defer func() { beforeExtract = nil }()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if oracle == nil {
		t.Fatal("the run extracted no frontier")
	}
	return res, oracle
}

// TestExtractMatchesMapOracle: every algorithm's frontier, extracted into
// its closed dense memo and materialized from it, is the trees the
// map-cached oracle builds over the run's own memo — the same shapes and
// fields, the same cost bits, the same sharing (sameTrees) — and the
// selected plan is the selected row's tree. A degraded run extracts the
// same way and still returns no snapshot (q3 is too small to degrade: it
// finishes before the first deadline poll).
func TestExtractMatchesMapOracle(t *testing.T) {
	cat := catalog.TPCH(1)
	three := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	w := objective.UniformWeights(three)
	// The bounded IRA's bound is drawn from the query's minima, taken before
	// the capture: their Selinger runs extract frontiers of their own.
	var minima objective.Vector
	algs := []struct {
		name string
		run  func(m *costmodel.Model) (Result, error)
	}{
		{"exa", func(m *costmodel.Model) (Result, error) {
			two := objective.NewSet(objective.TotalTime, objective.Energy)
			return EXA(m, objective.UniformWeights(two), objective.NoBounds(), Options{Objectives: two})
		}},
		{"rta", func(m *costmodel.Model) (Result, error) {
			return RTA(m, w, Options{Objectives: three, Alpha: 1.5})
		}},
		{"rtavector", func(m *costmodel.Model) (Result, error) {
			prec := objective.UniformPrecision(1.2, three).With(objective.Energy, 2)
			return RTA(m, w, Options{Objectives: three, Precision: prec})
		}},
		{"bounded ira", func(m *costmodel.Model) (Result, error) {
			b := objective.NoBounds().With(objective.BufferFootprint, 1.5*minima[objective.BufferFootprint])
			return IRA(m, w, b, Options{Objectives: three, Alpha: 1.5})
		}},
		{"selinger", func(m *costmodel.Model) (Result, error) {
			return Selinger(m, objective.TotalTime, Options{})
		}},
		{"weighted sum", func(m *costmodel.Model) (Result, error) {
			return WeightedSumDP(m, w, Options{Objectives: three})
		}},
		{"degraded rta", func(m *costmodel.Model) (Result, error) {
			return RTAContext(expired(t), m, w, Options{Objectives: three, Alpha: 1.5})
		}},
	}
	for _, num := range []int{3, 5, 8} {
		q := workload.MustQuery(num, cat)
		var err error
		if minima, err = ObjectiveMinima(costmodel.NewDefault(q), Options{Objectives: three}); err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			t.Run(fmt.Sprintf("q%d/%s", num, alg.name), func(t *testing.T) {
				res, oracle := captureOracle(t, func() (Result, error) { return alg.run(costmodel.NewDefault(q)) })
				plans := res.Frontier.Plans()
				sameTrees(t, plans, oracle)
				if res.Best != plans[res.BestRow] {
					t.Errorf("the selected plan is not row %d's tree", res.BestRow)
				}
				if degraded := alg.name == "degraded rta" && num != 3; degraded != res.Stats.TimedOut {
					t.Fatalf("timed out %v, want %v", res.Stats.TimedOut, degraded)
				}
				if res.Stats.TimedOut && res.Snapshot != nil {
					t.Error("a degraded run returned a snapshot")
				}
			})
		}
	}
}

// coldMaterializeAllocs bounds what materializing a finished run's frontier
// allocates: the slot cache, the node slab and the plans slice. 3 measured
// on go1.24 (4 under -race).
const coldMaterializeAllocs = 6

// TestColdMaterializeAllocs: materializing a cold run's extracted frontier
// allocates one small constant, the same for every run — however many
// frontier rows and reached sub-plans it has. A node or a map entry per
// plan shows as counts that differ between the runs.
func TestColdMaterializeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs RTA on TPC-H at up to nine objectives")
	}
	cat := catalog.TPCH(1)
	type instance struct {
		label string
		run   func(m *costmodel.Model) (Result, error)
	}
	var runs []instance
	for _, objs := range []int{3, 6, 9} {
		set := objective.NewSet(objective.All()[:objs]...)
		runs = append(runs, instance{fmt.Sprintf("rta/%dobj", objs), func(m *costmodel.Model) (Result, error) {
			opts := smallOpts(set)
			opts.Alpha = 1.5
			return RTA(m, objective.UniformWeights(set), opts)
		}})
	}
	two := objective.NewSet(objective.TotalTime, objective.Energy)
	runs = append(runs, instance{"exa/2obj", func(m *costmodel.Model) (Result, error) {
		return EXA(m, objective.UniformWeights(two), objective.NoBounds(), smallOpts(two))
	}})
	const reps = 10
	var first float64
	for _, num := range []int{2, 3, 5, 7, 8, 9, 10} {
		for _, in := range runs {
			label := fmt.Sprintf("q%d/%s", num, in.label)
			res, err := in.run(costmodel.NewDefault(workload.MustQuery(num, cat)))
			if err != nil {
				t.Fatal(err)
			}
			f := res.Frontier
			// Plans materializes once per frontier: measure fresh copies of
			// the extracted one, made outside the measured function.
			fresh := make([]Frontier, reps+1)
			for i := range fresh {
				fresh[i].objs, fresh[i].all, fresh[i].costs, fresh[i].entries, fresh[i].subs = f.objs, f.all, f.costs, f.entries, f.subs
			}
			k := 0
			allocs := testing.AllocsPerRun(reps, func() {
				fresh[k].Plans()
				k++
			})
			plans, probes := denseMemo{f}.Size()
			t.Logf("%s: %d frontier rows, %d sub-plans, %d probes, %.0f allocs", label, f.Len(), plans-f.Len(), probes, allocs)
			if first == 0 {
				first = allocs
			}
			if allocs != first || allocs > coldMaterializeAllocs {
				t.Errorf("%s: materializing the frontier allocates %.0f objects; want %.0f like every other run, at most %d",
					label, allocs, first, coldMaterializeAllocs)
			}
		}
	}
}

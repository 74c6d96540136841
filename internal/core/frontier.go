package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// costStride is the size of one cost row in a frontier's backing array
// (full nine-dimensional vectors, like pareto.FlatArchive).
const costStride = int(objective.NumObjectives)

// Frontier is the flat, canonically ordered (α-approximate) Pareto
// frontier of the full table set — the paper's "Pareto frontier as
// byproduct of optimization" — and the one form a finished frontier takes
// in this package: every run returns it, and a FrontierSnapshot is the
// same value over a closed sub-memo. Rows are sorted by
// pareto.CompareCanonical (stably, so insertion order breaks ties), which
// makes the frontier, and the tie-breaking of SelectBest over it,
// independent of Options.Workers and of any internal scheduling.
//
// A Frontier is immutable and safe for concurrent use.
type Frontier struct {
	objs objective.Set
	all  query.TableSet
	// costs/entries are the frontier rows in canonical order.
	costs   []float64
	entries []plan.Entry
	// memo resolves the sub-plan references of entries: the engine's memo
	// table for a run's result, the closed sub-memo for a snapshot.
	memo plan.Memo
	// inserted/rejected/evicted are the full set's archive counters.
	inserted, rejected, evicted int

	// materialize memoizes Plans: a cached snapshot answers many re-weight
	// requests, and building every frontier tree per request would put
	// O(frontier) work back on the fast path. The trees are immutable, so
	// one materialization serves every later (and concurrent) selection.
	materialize sync.Once
	plans       []*plan.Node

	// rendered memoizes PlanJSON, one slot per row, allocated on the first
	// render: a run that never renders pays nothing, and a cached snapshot
	// renders each row it is ever asked for once instead of once per
	// re-weight. It is derived state: SizeBytes does not count it, so what
	// the frontier tier adds for an entry is what its eviction subtracts.
	renderOnce sync.Once
	rendered   []atomic.Pointer[rendering]
}

// rendering is one memoized plan rendering and what it was rendered for.
type rendering struct {
	q    *query.Query
	objs objective.Set
	json []byte
}

// newFrontier extracts the canonically ordered frontier of a finished
// run's full-set archive (nil for a run that stored nothing).
func (e *engine) newFrontier(flat *pareto.FlatArchive) *Frontier {
	f := &Frontier{objs: e.opts.Objectives, all: e.enum.all, memo: e.memo}
	if flat != nil {
		f.costs, f.entries = flat.Canonical()
		f.inserted, f.rejected, f.evicted = flat.Stats()
	}
	return f
}

// finish is the shared epilogue of EXA, RTA, RTAVector and IRA: order the
// final archive canonically once, select over the canonical rows, take the
// selected plan from the frontier's one materialization, and — when
// Options.CaptureSnapshot is on and the run did not degrade — capture the
// snapshot from the same ordering. setAlpha is the set-level precision the
// snapshot records.
func (e *engine) finish(flat *pareto.FlatArchive, w objective.Weights, b objective.Bounds, setAlpha float64, st Stats) Result {
	f := e.newFrontier(flat)
	res := Result{Frontier: f, Stats: st}
	if f.Len() == 0 {
		return res
	}
	res.BestRow = f.SelectBest(w, b)
	res.Best = f.Plans()[res.BestRow]
	if e.opts.CaptureSnapshot && !st.TimedOut {
		res.Snapshot = f.snapshot(setAlpha, e.cfg, st)
	}
	return res
}

// Len returns the number of frontier plans.
func (f *Frontier) Len() int { return len(f.costs) / costStride }

// Objectives returns the active objective set of the originating run.
func (f *Frontier) Objectives() objective.Set { return f.objs }

// CostAt returns the i-th frontier cost vector (canonical order).
func (f *Frontier) CostAt(i int32) objective.Vector {
	return objective.Vector(f.costs[int(i)*costStride : (int(i)+1)*costStride])
}

// Frontier returns the cost vectors of the frontier plans.
func (f *Frontier) Frontier() []objective.Vector {
	out := make([]objective.Vector, f.Len())
	for i := range out {
		out[i] = f.CostAt(int32(i))
	}
	return out
}

// Stats returns the cumulative insert/reject/evict counters of the
// archive the frontier was extracted from.
func (f *Frontier) Stats() (inserted, rejected, evicted int) {
	return f.inserted, f.rejected, f.evicted
}

// SelectBest implements the paper's SelectBest(P, W, B) over the frontier
// rows: the index of the plan with minimal weighted cost among those
// respecting the bounds, falling back to the overall minimum. Ties break
// toward the earliest (canonical-order) plan. Returns -1 only for an empty
// frontier.
func (f *Frontier) SelectBest(w objective.Weights, b objective.Bounds) int32 {
	return pareto.SelectBestRows(f.costs, w, b, f.objs)
}

// Plans returns the frontier's plan trees in canonical order, sharing
// common subtrees. They are materialized on the first call — the only
// point where *plan.Node trees are allocated — and shared by every later
// one; the returned slice must not be modified. A snapshot's closed
// sub-memo materializes as a plan.DenseMemo; a run's memo table is not
// closed and keeps the materializer's map.
func (f *Frontier) Plans() []*plan.Node {
	f.materialize.Do(func() {
		var mt *plan.Materializer
		if subs, ok := f.memo.(subMemo); ok {
			mt = plan.NewDenseMaterializer(snapshotMemo{frontierMemo{f}, subs})
		} else {
			mt = plan.NewMaterializer(frontierMemo{f})
		}
		f.plans = make([]*plan.Node, f.Len())
		for i := range f.plans {
			f.plans[i] = mt.Plan(f.all, int32(i))
		}
	})
	return f.plans
}

// PlanJSON returns the compact JSON rendering of row i's plan for q, with
// the costs of objs (plan.Node.JSON): rendered on the first request, the
// same bytes on every later one. The returned slice is shared and must not
// be modified.
//
// q must be a query this frontier answers — the query of the run, or for a
// snapshot any query with its FrontierKey — which fixes everything a
// rendering reads from a query except what the key leaves out: the relation
// aliases, and the order the join edges were declared in (the order
// Query.EstimateRows multiplies selectivities in, so the last bit of a
// "rows" field). A slot therefore remembers what it was rendered for and
// serves only that query, or one that SameRendering as it, under those
// objectives; any other request renders afresh and takes the slot over.
// Two goroutines rendering one row at once both render, to the same bytes
// for the same request.
func (f *Frontier) PlanJSON(i int32, q *query.Query, objs objective.Set) ([]byte, error) {
	f.renderOnce.Do(func() { f.rendered = make([]atomic.Pointer[rendering], f.Len()) })
	slot := &f.rendered[i]
	if r := slot.Load(); r != nil && r.objs == objs && SameRendering(r.q, q) {
		return r.json, nil
	}
	raw, err := f.Plans()[i].JSON(q, objs)
	if err != nil {
		return nil, err
	}
	slot.Store(&rendering{q: q, objs: objs, json: raw})
	return raw, nil
}

// SameRendering reports whether two queries answered by one frontier render
// its plans to the same bytes: the same query, or equal aliases and equal
// edges, position by position. Two requests with one key answer alike only
// if their queries also render alike.
func SameRendering(a, b *query.Query) bool {
	return a == b || slices.Equal(a.Edges, b.Edges) &&
		slices.EqualFunc(a.Relations, b.Relations, func(x, y query.Relation) bool { return x.Alias == y.Alias })
}

// frontierMemo is the plan.Memo the materializer reads a frontier
// through: the full set resolves to the canonical rows, every other set
// to the frontier's memo. (The frontier accessor CostAt(i) and the memo's
// CostAt(set, i) differ in signature, hence the separate type.)
type frontierMemo struct{ f *Frontier }

func (m frontierMemo) EntryAt(t query.TableSet, idx int32) plan.Entry {
	if t == m.f.all {
		return m.f.entries[idx]
	}
	return m.f.memo.EntryAt(t, idx)
}

func (m frontierMemo) CostAt(t query.TableSet, idx int32) objective.Vector {
	if t == m.f.all {
		return m.f.CostAt(idx)
	}
	return m.f.memo.CostAt(t, idx)
}

package core

import (
	"cmp"
	"slices"
	"sort"
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
// in this package: every run extracts it once, closed over the sub-plans
// its rows reference, and a FrontierSnapshot is the same value with the
// run's precision and effort. Rows are sorted by
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
	// subs is the closed sub-memo the entries reference: every (table
	// set, index) they transitively reach, sets ascending, densely
	// re-indexed (see extract).
	subs subMemo
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

// finish is the shared epilogue of EXA, RTA, RTAVector and IRA: extract the
// final archive's frontier once, select over its canonical rows, take the
// selected plan from the frontier's one materialization, and — unless the
// run degraded — return the frontier as the run's snapshot too. setAlpha
// is the set-level precision the snapshot records.
func (e *engine) finish(flat *pareto.FlatArchive, w objective.Weights, b objective.Bounds, setAlpha float64, st Stats) Result {
	snap := &FrontierSnapshot{setAlpha: setAlpha, pruneAlpha: e.cfg.Alpha(), prec: e.cfg.Precision(), stats: st}
	e.extract(&snap.Frontier, flat)
	res := Result{Frontier: &snap.Frontier, Stats: st}
	if snap.Len() == 0 {
		return res
	}
	res.BestRow = snap.SelectBest(w, b)
	res.Best = snap.Plans()[res.BestRow]
	if !st.TimedOut {
		res.Snapshot = snap
	}
	return res
}

// beforeExtract, when set (by tests), sees every finished run's engine and
// final archive before extract closes the frontier over its memo.
var beforeExtract func(e *engine, flat *pareto.FlatArchive)

// extract fills f with the canonically ordered frontier of a finished
// run's full-set archive, closed over the sub-plans its entries
// transitively reference: the frontier rows first, then every reached
// set's rows, sets ascending and indexes ascending within a set, all
// carved from one entry array and one cost array, with every reference
// rewritten to the new numbering. That is the layout a decoded snapshot
// has, so every frontier materializes the same way, and a result holds
// only what its frontier reaches, not the run's memo.
func (e *engine) extract(f *Frontier, flat *pareto.FlatArchive) {
	f.objs, f.all = e.opts.Objectives, e.enum.all
	if flat == nil || flat.Len() == 0 {
		return
	}
	if beforeExtract != nil {
		beforeExtract(e, flat)
	}
	f.inserted, f.rejected, f.evicted = flat.Stats()

	// Every stored row of the memo has a number, base[id]+idx. mark holds,
	// per row, zero until the row is reached, and after renumbering its new
	// index within its set plus one; cnt counts a set's reached rows.
	archives := e.memo.archives
	total := 0
	for _, a := range archives {
		if a != nil {
			total += a.Len()
		}
	}
	buf := make([]int32, 2*len(archives)+1+total)
	base, cnt, mark := buf[:len(archives)+1], buf[len(archives)+1:2*len(archives)+1], buf[2*len(archives)+1:]
	for id, a := range archives {
		base[id+1] = base[id]
		if a != nil {
			base[id+1] += int32(a.Len())
		}
	}
	row := func(s query.TableSet, idx int32) *int32 { return &mark[base[e.memo.id(s)]+idx] }
	reach := func(ent plan.Entry) {
		if ent.IsScan() {
			return
		}
		*row(ent.LeftSet, ent.LeftIdx) = 1
		if ent.RightIdx != plan.SyntheticInner {
			*row(ent.RightSet, ent.RightIdx) = 1
		}
	}

	// Reachability, largest sets first: an entry references only proper
	// subsets of its own set, so by the time a set's rows are read, every
	// row that reaches them has been.
	n := flat.Len()
	for i := range n {
		reach(flat.EntryAt(int32(i)))
	}
	nsets, reached := 0, 0
	for k := e.enum.n; k >= 1; k-- {
		for _, s := range e.enum.levels[k] {
			id := e.memo.id(s)
			a := archives[id]
			if a == nil {
				continue
			}
			for i, m := range mark[base[id]:base[id+1]] {
				if m != 0 {
					cnt[id]++
					reach(a.EntryAt(int32(i)))
				}
			}
			if cnt[id] > 0 {
				nsets++
				reached += int(cnt[id])
			}
		}
	}

	ents, costs := make([]plan.Entry, n+reached), make([]float64, (n+reached)*costStride)
	f.entries, f.costs = ents[:n:n], costs[:n*costStride:n*costStride]
	for i, oi := range flat.CanonicalOrder() {
		ents[i] = flat.EntryAt(oi)
		copy(costs[i*costStride:], flat.CostRow(oi)[:])
	}
	f.subs = make(subMemo, 0, nsets)
	for k := 1; k <= e.enum.n; k++ {
		for _, s := range e.enum.levels[k] {
			if cnt[e.memo.id(s)] > 0 {
				f.subs = append(f.subs, memoSet{set: s})
			}
		}
	}
	slices.SortFunc(f.subs, func(a, b memoSet) int { return cmp.Compare(a.set, b.set) })
	off := n
	for i := range f.subs {
		sub := &f.subs[i]
		id := e.memo.id(sub.set)
		a, end := archives[id], off+int(cnt[id])
		sub.off = off
		sub.entries, sub.costs = ents[off:end:end], costs[off*costStride:end*costStride:end*costStride]
		j := int32(0)
		for idx, m := range mark[base[id]:base[id+1]] {
			if m != 0 {
				mark[base[id]+int32(idx)] = j + 1
				sub.entries[j] = a.EntryAt(int32(idx))
				copy(sub.costs[int(j)*costStride:], a.CostRow(int32(idx))[:])
				j++
			}
		}
		off = end
	}
	for i, ent := range ents {
		if ent.IsScan() {
			continue
		}
		ents[i].LeftIdx = *row(ent.LeftSet, ent.LeftIdx) - 1
		if ent.RightIdx != plan.SyntheticInner {
			ents[i].RightIdx = *row(ent.RightSet, ent.RightIdx) - 1
		}
	}
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
// point where *plan.Node trees are allocated, one slab for all of them —
// and shared by every later one; the returned slice must not be modified.
func (f *Frontier) Plans() []*plan.Node {
	f.materialize.Do(func() {
		mt := plan.NewDenseMaterializer(denseMemo{f})
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

// memoSet is the retained slice of one table set's archive.
type memoSet struct {
	set     query.TableSet
	costs   []float64
	entries []plan.Entry
	// off numbers the set's first row in the frontier's dense numbering
	// (denseMemo): the frontier rows first, then every retained set's rows,
	// sets ascending.
	off int
}

// subMemo is a frontier's closed sub-memo, sets ascending.
type subMemo []memoSet

// find returns the retained slice for a table set (nil when absent, as
// for the full set, which lives in the frontier rows).
func (m subMemo) find(t query.TableSet) *memoSet {
	i := sort.Search(len(m), func(i int) bool { return m[i].set >= t })
	if i < len(m) && m[i].set == t {
		return &m[i]
	}
	return nil
}

// denseMemo is the plan.DenseMemo a frontier materializes through: the
// frontier rows are slots 0 to Len()-1, and each retained set's rows
// follow from its off. Closed and densely re-indexed, the sub-memo numbers
// every plan a materialization can reach.
type denseMemo struct{ f *Frontier }

var _ plan.DenseMemo = denseMemo{}

// Lookup implements plan.DenseMemo.
func (m denseMemo) Lookup(t query.TableSet, idx int32) (int, plan.Entry, *objective.Vector) {
	i := int(idx)
	if t == m.f.all {
		return i, m.f.entries[i], (*objective.Vector)(m.f.costs[i*costStride:])
	}
	sub := m.f.subs.find(t)
	return sub.off + i, sub.entries[i], (*objective.Vector)(sub.costs[i*costStride:])
}

// Size implements plan.DenseMemo.
func (m denseMemo) Size() (plans, probes int) {
	count := func(ents []plan.Entry) {
		plans += len(ents)
		for _, ent := range ents {
			if ent.RightIdx == plan.SyntheticInner {
				probes++
			}
		}
	}
	count(m.f.entries)
	for i := range m.f.subs {
		count(m.f.subs[i].entries)
	}
	return plans, probes
}

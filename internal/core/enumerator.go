package core

import (
	"cmp"
	"slices"

	"moqo/internal/pareto"
	"moqo/internal/query"
)

// enumeration materializes the search space of the dynamic program: the
// connected table sets treated at each cardinality level, ascending
// within a level, each with a dense integer id.
//
// Materializing levels up front is what enables the level-synchronized
// parallel schedule: all sets of cardinality k depend only on sets of
// cardinality < k, so a level can be sharded across workers once the
// previous level is complete.
//
// Ids are assigned level-major (all sets of cardinality 1 first, then
// cardinality 2, ...), so a set's id is always larger than the ids of the
// sub-plans it combines, and the memo table can be a plain slice.
type enumeration struct {
	all    query.TableSet
	n      int
	levels [][]query.TableSet // levels[k]: sets of cardinality k (k in 1..n)
	total  int                // number of enumerated sets
	// scanned counts the table sets visited to build the levels: exactly
	// `total` unless the walk was interrupted (Stats.EnumSets).
	scanned int
	// chainFallback records that the run's stop poll fired while the
	// levels were still being materialized (an exponentially large
	// connected-subset walk: a clique, a wide star). The levels were rebuilt
	// as the minimal left-deep chain — all singletons plus the prefix
	// sets {r0..rk} — and the engine's candidate loops peel one relation
	// per split, so the §5.1 degraded path still produces a plan in O(n)
	// work instead of ignoring the deadline until workers start. (A
	// cancelled run gets the chain too and treats none of it.)
	chainFallback bool
}

// enumCheckMask amortizes the stop poll to one check per 4096 visited
// sets — cheap against the per-set work, yet a pre-expired deadline stops
// a clique's 2^n walk within microseconds.
const enumCheckMask = 4095

// enumerate builds the enumeration for a query with a connected join
// graph (newEngine refuses any other): only connected table sets are
// materialized — the standard connected-subgraph restriction, under which
// every split the candidate loops combine is predicate-connected. The
// walk (query.EachConnectedSubset) touches only the sets it keeps: for an
// n-table chain that is n(n+1)/2 sets, not 2^n - 1. Each level is then
// sorted ascending, which fixes the dense ids and the per-set treatment
// order.
//
// The enumeration reads the query and writes nothing to it: the estimates
// of the sets it finds are stored by newEngine, once the levels are final,
// in the run's cost model (costmodel.Model.Warm).
//
// stop is the run's stop poll (engine.stopped), asked every
// enumCheckMask+1 visited sets during materialization. Once it reports a
// stop the walk switches to the chain-fallback levels, so a query whose
// connected sets are exponentially many still degrades promptly.
func enumerate(q *query.Query, stop func() bool) *enumeration {
	n := q.NumRelations()
	e := &enumeration{all: q.AllTables(), n: n}
	var sets []query.TableSet
	stopped := false
	q.EachConnectedSubset(e.all, func(s query.TableSet) bool {
		e.scanned++
		sets = append(sets, s)
		if e.scanned&enumCheckMask != 0 || stop == nil {
			return true
		}
		stopped = stop()
		return !stopped
	})
	if stopped {
		e.buildChainFallback()
	} else {
		// Every level is a run of one slice, sorted by cardinality and
		// ascending within it.
		slices.SortFunc(sets, func(a, b query.TableSet) int {
			if c := cmp.Compare(a.Len(), b.Len()); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		e.levels = make([][]query.TableSet, n+1)
		for lo, hi := 0, 0; lo < len(sets); lo = hi {
			k := sets[lo].Len()
			for hi < len(sets) && sets[hi].Len() == k {
				hi++
			}
			e.levels[k] = sets[lo:hi:hi]
		}
		e.total = len(sets)
	}
	return e
}

// buildChainFallback replaces the partially materialized levels with the
// minimal left-deep chain over the from-clause order: all n singletons at
// level 1, then exactly one prefix set {r0..rk} per higher level. Every
// prefix splits into (previous prefix, next relation), so the degraded
// candidate loop (forEachCandidateChain) treats the whole query in O(n)
// splits and the §5.1 path still returns a plan instead of first walking
// the rest of an exponential search space.
func (e *enumeration) buildChainFallback() {
	e.chainFallback = true
	e.levels = make([][]query.TableSet, e.n+1)
	for r := 0; r < e.n; r++ {
		e.levels[1] = append(e.levels[1], query.Singleton(r))
	}
	for k := 2; k <= e.n; k++ {
		e.levels[k] = []query.TableSet{query.FullSet(k)}
	}
	e.total = 2*e.n - 1
	if e.n == 1 {
		e.total = 1
	}
}

// memoDenseMaxRelations bounds the direct bitset->id index: up to this
// many relations the index is a slice of 2^n int32 ids (16 MiB at the
// cap), beyond it a map keeps memory bounded. Every workload the repo
// ships stays far below the cap (TPC-H <= 8 relations, synthetic <= 20),
// so the hot path never hashes.
const memoDenseMaxRelations = 22

// memoTable is the slice-backed plan-archive store of one engine run. It
// replaces the seed's map[TableSet]*Archive: flat archives are indexed by
// the enumeration's dense ids, and the bitset->id translation is a slice
// lookup, so the innermost candidate loops never hash.
//
// Workers of one level write disjoint ids and only read archives of lower
// levels, which are immutable after the level barrier — the memo needs no
// locking. A finished run's frontier is extracted from it once (extract),
// closed over the rows the frontier reaches; no result keeps the memo.
type memoTable struct {
	archives []*pareto.FlatArchive // indexed by dense id
	// slab holds the headers of the archives the run fills, indexed by
	// dense id (worker.open); archives points into it, or at an archive a
	// shared memo published.
	slab   []memoSlot
	dense  []int32 // bitset -> id (+1; 0 = not enumerated); nil when sparse
	sparse map[query.TableSet]int32
}

// newMemoTable allocates the memo for an enumeration.
func newMemoTable(e *enumeration) *memoTable {
	t := &memoTable{archives: make([]*pareto.FlatArchive, e.total), slab: make([]memoSlot, e.total)}
	if e.n <= memoDenseMaxRelations {
		t.dense = make([]int32, 1<<uint(e.n))
	} else {
		t.sparse = make(map[query.TableSet]int32, e.total)
	}
	id := int32(0)
	for k := 1; k <= e.n; k++ {
		for _, s := range e.levels[k] {
			if t.dense != nil {
				t.dense[s] = id + 1
			} else {
				t.sparse[s] = id + 1
			}
			id++
		}
	}
	return t
}

// memoSlot is one archive header of the slab. A worker writes its
// archive's counters and hint on every insert while other workers read the
// headers of lower-level archives, some of them its neighbours in the slab;
// the pad keeps any two headers off a common cache line (cold_wn
// cpu_ms_per_op 3.24 → 3.10 against the unpadded slab, four pairs on two
// cores).
type memoSlot struct {
	arch pareto.FlatArchive
	_    [64]byte
}

// id returns the dense id of a table set, or -1 when the set is not part
// of the enumeration (e.g. a disconnected subset of a connected query).
func (t *memoTable) id(s query.TableSet) int32 {
	if t.dense != nil {
		return t.dense[s] - 1
	}
	return t.sparse[s] - 1
}

// lookup returns the archive stored for a table set, or nil when the set
// is not enumerated or not yet treated.
func (t *memoTable) lookup(s query.TableSet) *pareto.FlatArchive {
	id := t.id(s)
	if id < 0 {
		return nil
	}
	return t.archives[id]
}

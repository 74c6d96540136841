package pareto

import (
	"math"

	"moqo/internal/objective"
	"moqo/internal/plan"
)

// The dominance scans of FlatArchive.InsertRowNear, over the sum index.
//
// A scanning insert asks two questions of the stored rows: does any row r
// satisfy r[o] <= c[o]*alpha[o] on every active objective (rejection), and
// which rows satisfy c[o] <= r[o] on every active objective (eviction)? Both
// are coordinatewise orders, and floating-point + is monotone, so they carry
// over to the rows' keys — the sum over the active objectives, added in ids
// order (FlatConfig.keys): a rejector's key is at most the thresholds' key,
// an evicted row's at least the candidate's. This is the presorting bound of
// Sort-Filter-Skyline (Chomicki et al., ICDE 2003). While an archive fills its
// rows stand in ascending key order, so each question is one binary search
// for a boundary and one contiguous run of rows: rejector scans the ranks
// whose key is at most the thresholds', downward from the boundary, where a
// rejector most often sits; evict scans the ranks from the candidate's key
// up. Counted over the cold_w1 list, that is 8.76 M row visits per round
// where the whole-archive scans made 19.90 M.
//
// Two-wide the index does better than a bound. A candidate is stored only if
// no row approximately dominates it, and then evicts every row it dominates,
// so no stored row weakly dominates another — as long as costs are >= 0, where
// r <= c implies r <= c*alpha. Ranked by the first objective, strictly
// ascending, such an antichain has the second strictly descending: rejection
// is the binary search and one row, and the rows to evict are one run from
// the boundary.
//
// The scans are specialized by width. Three and four objectives test each row
// with SETcc-style 0/1 flags ANDed together (b2u) and one predictable branch
// per group of four rows; five and more leave a row at its first failing
// objective (branch-free five-, six- and nine-wide folds measured slower).
//
// The rows move while an archive fills: store opens a slot at the
// candidate's rank and closes up the evicted rows, and FlatArchive.Seal puts
// them back in storage order once, when they are read. A key that orders
// nothing — a NaN sum, or two-wide a NaN or negative cost — sends the archive
// to insertGeneric for good (FlatArchive.generic): anyRowLeqGeneric and
// evictGeneric below, the original early-exit loops over the whole archive in
// storage order. They are also the differential oracle:
// TestKernelMatchesGenericOracle, TestHintMatchesGenericOracle,
// TestIndexEdgeStreams and FuzzFlatInsert drive streams through both paths and
// demand bit-identical archives and counters after every insert, and an index
// whose every key is its row's recomputed key, in ascending order.

// kernelKind selects the width-specialized scans, resolved once per
// FlatConfig so the hot loop dispatches on a plain switch.
type kernelKind uint8

const (
	kernelGeneric kernelKind = iota // any objective subset; early-exit scalar loops
	kernel2                         // exactly two active objectives: the antichain
	kernel3                         // exactly three active objectives
	kernel4                         // exactly four active objectives
)

// resolveKernel picks the specialized kernel that matches the
// active-objective count, if one exists.
func resolveKernel(ids []objective.ID) kernelKind {
	switch len(ids) {
	case 2:
		return kernel2
	case 3:
		return kernel3
	case 4:
		return kernel4
	default:
		return kernelGeneric
	}
}

// b2u converts a comparison result to 0/1 without a data-dependent branch
// (the compiler lowers this to a flag-materializing SETcc when inlined).
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ranksBelow returns how many ranks have a key below k: the first rank whose
// key is at least k. Both searches halve the range without a data-dependent
// branch (the comparison becomes a 0/1 flag, b2u, and masks the step), since
// which half a key falls in is a coin toss the branch predictor loses.
func (a *FlatArchive) ranksBelow(k float64) int {
	recs := a.recs
	base, n := 0, len(recs)
	for n > 1 {
		half := n >> 1
		base += half & -int(b2u(recs[base+half-1].key < k))
		n -= half
	}
	if n == 1 && recs[base].key < k {
		base++
	}
	return base
}

// ranksAtMost returns how many ranks have a key of at most k.
func (a *FlatArchive) ranksAtMost(k float64) int {
	recs := a.recs
	base, n := 0, len(recs)
	for n > 1 {
		half := n >> 1
		base += half & -int(b2u(recs[base+half-1].key <= k))
		n -= half
	}
	if n == 1 && recs[base].key <= k {
		base++
	}
	return base
}

// nanKey marks a row evict has found dominated: no ranked row has a NaN key.
var nanKey = math.NaN()

// rejector is the rejection scan: the index of a stored row within thresholds
// t on every active objective, or -1. tk is the thresholds' key; only the
// ranks whose key is at most tk are visited, from the highest down.
func (a *FlatArchive) rejector(t *[stride]float64, tk float64) int {
	cfg := a.cfg
	p := a.ranksAtMost(tk)
	costs := a.costs[:p*stride]
	switch cfg.kind {
	case kernel2:
		// Of the rows whose first objective is within t[0], the last has the
		// least second objective.
		if p > 0 && costs[(p-1)*stride+cfg.o1] <= t[1] {
			return p - 1
		}
		return -1
	case kernel3:
		return lastRowLeq3(costs, cfg.o0, cfg.o1, cfg.o2, t[0], t[1], t[2])
	case kernel4:
		return lastRowLeq4(costs, cfg.o0, cfg.o1, cfg.o2, cfg.o3, t[0], t[1], t[2], t[3])
	}
	ids := cfg.ids
rows:
	for i := p - 1; i >= 0; i-- {
		row := costs[i*stride : i*stride+stride]
		for k, o := range ids {
			if row[o] > t[k] {
				continue rows
			}
		}
		return i
	}
	return -1
}

// lastRowLeq3 returns the index of the last stride-9 row in costs that is <=
// the three thresholds on the three active objectives, or -1. Rows are
// processed four at a time from the end; each row folds into a branch-free
// flag, and one predictable branch tests the group.
func lastRowLeq3(costs []float64, o0, o1, o2 int, t0, t1, t2 float64) int {
	i := len(costs)
	for ; i >= 4*stride; i -= 4 * stride {
		b := i - 4*stride
		f0 := b2u(costs[b+o0] <= t0) & b2u(costs[b+o1] <= t1) & b2u(costs[b+o2] <= t2)
		f1 := b2u(costs[b+stride+o0] <= t0) & b2u(costs[b+stride+o1] <= t1) & b2u(costs[b+stride+o2] <= t2)
		f2 := b2u(costs[b+2*stride+o0] <= t0) & b2u(costs[b+2*stride+o1] <= t1) & b2u(costs[b+2*stride+o2] <= t2)
		f3 := b2u(costs[b+3*stride+o0] <= t0) & b2u(costs[b+3*stride+o1] <= t1) & b2u(costs[b+3*stride+o2] <= t2)
		if f0|f1|f2|f3 != 0 {
			return lastOfFour(b, f1, f2, f3)
		}
	}
	for i -= stride; i >= 0; i -= stride {
		if b2u(costs[i+o0] <= t0)&b2u(costs[i+o1] <= t1)&b2u(costs[i+o2] <= t2) != 0 {
			return i / stride
		}
	}
	return -1
}

// lastRowLeq4 is lastRowLeq3 for four active objectives.
func lastRowLeq4(costs []float64, o0, o1, o2, o3 int, t0, t1, t2, t3 float64) int {
	i := len(costs)
	for ; i >= 4*stride; i -= 4 * stride {
		b := i - 4*stride
		f0 := b2u(costs[b+o0] <= t0) & b2u(costs[b+o1] <= t1) & b2u(costs[b+o2] <= t2) & b2u(costs[b+o3] <= t3)
		f1 := b2u(costs[b+stride+o0] <= t0) & b2u(costs[b+stride+o1] <= t1) & b2u(costs[b+stride+o2] <= t2) & b2u(costs[b+stride+o3] <= t3)
		f2 := b2u(costs[b+2*stride+o0] <= t0) & b2u(costs[b+2*stride+o1] <= t1) & b2u(costs[b+2*stride+o2] <= t2) & b2u(costs[b+2*stride+o3] <= t3)
		f3 := b2u(costs[b+3*stride+o0] <= t0) & b2u(costs[b+3*stride+o1] <= t1) & b2u(costs[b+3*stride+o2] <= t2) & b2u(costs[b+3*stride+o3] <= t3)
		if f0|f1|f2|f3 != 0 {
			return lastOfFour(b, f1, f2, f3)
		}
	}
	for i -= stride; i >= 0; i -= stride {
		if b2u(costs[i+o0] <= t0)&b2u(costs[i+o1] <= t1)&b2u(costs[i+o2] <= t2)&b2u(costs[i+o3] <= t3) != 0 {
			return i / stride
		}
	}
	return -1
}

// lastOfFour returns the index of the last of the four rows from offset b
// whose flag is set, given that one of them is.
func lastOfFour(b int, f1, f2, f3 uint32) int {
	switch {
	case f3 != 0:
		return b/stride + 3
	case f2 != 0:
		return b/stride + 2
	case f1 != 0:
		return b/stride + 1
	}
	return b / stride
}

// evict marks the rows candidate c dominates (c <= row on every active
// objective) with a NaN key, visiting only the ranks from lo, the first whose
// key is at least c's, and returns the first it marked (the row count if
// none). store closes them up.
func (a *FlatArchive) evict(c *objective.Vector, lo int) int {
	cfg, costs, recs := a.cfg, a.costs, a.recs
	first := len(recs)
	switch cfg.kind {
	case kernel2:
		// The ranks from lo on are within c on the first objective, and their
		// second objective falls: the dominated ones are a run from lo.
		c1 := c[cfg.o1]
		for i := lo; i < len(recs) && c1 <= costs[i*stride+cfg.o1]; i++ {
			recs[i].key, first = nanKey, lo
		}
	case kernel3:
		o0, o1, o2 := cfg.o0, cfg.o1, cfg.o2
		c0, c1, c2 := c[o0], c[o1], c[o2]
		for i := lo; i < len(recs); i++ {
			row := costs[i*stride : i*stride+stride]
			if b2u(c0 <= row[o0])&b2u(c1 <= row[o1])&b2u(c2 <= row[o2]) != 0 {
				recs[i].key, first = nanKey, min(first, i)
			}
		}
	case kernel4:
		o0, o1, o2, o3 := cfg.o0, cfg.o1, cfg.o2, cfg.o3
		c0, c1, c2, c3 := c[o0], c[o1], c[o2], c[o3]
		for i := lo; i < len(recs); i++ {
			row := costs[i*stride : i*stride+stride]
			if b2u(c0 <= row[o0])&b2u(c1 <= row[o1])&b2u(c2 <= row[o2])&b2u(c3 <= row[o3]) != 0 {
				recs[i].key, first = nanKey, min(first, i)
			}
		}
	default:
		ids := cfg.ids
	rows:
		for i := lo; i < len(recs); i++ {
			row := costs[i*stride : i*stride+stride]
			for _, o := range ids {
				if c[o] > row[o] {
					continue rows
				}
			}
			recs[i].key, first = nanKey, min(first, i)
		}
	}
	return first
}

// store ranks candidate c, key ck, at lo — no rank before lo has a key of ck
// or more, none from lo on a smaller one — and drops the rows evict marked
// from first on: the ranks from lo to first move up one, into the first marked
// slot, and the unmarked ranks after it close up behind them.
func (a *FlatArchive) store(c *objective.Vector, e plan.Entry, ck float64, lo, first int) {
	n := len(a.recs)
	if first == n {
		a.recs = append(a.recs, record{})
		a.costs = append(a.costs, c[:]...)
		copy(a.recs[lo+1:], a.recs[lo:n])
		copy(a.costs[(lo+1)*stride:], a.costs[lo*stride:n*stride])
	} else {
		recs, costs := a.recs, a.costs
		copy(recs[lo+1:first+1], recs[lo:first])
		copy(costs[(lo+1)*stride:(first+1)*stride], costs[lo*stride:first*stride])
		out := first + 1
		for i := first + 1; i < n; i++ {
			if k := recs[i].key; k != k {
				continue
			}
			if out != i {
				recs[out] = recs[i]
				copy(costs[out*stride:(out+1)*stride], costs[i*stride:(i+1)*stride])
			}
			out++
		}
		a.evicted += n + 1 - out
		a.recs, a.costs = recs[:out], costs[:out*stride]
	}
	a.recs[lo] = record{entry: e, key: ck, seq: int32(a.inserted)}
	copy(a.costs[lo*stride:(lo+1)*stride], c[:])
}

// anyRowLeqGeneric is the oracle's rejection scan: the offset of the first
// stride-9 row in costs within thresholds t on every objective of ids (no
// objective with >), or -1.
func anyRowLeqGeneric(costs []float64, ids []objective.ID, t *[stride]float64) int {
	for i := 0; i < len(costs); i += stride {
		dominates := true
		for k, o := range ids {
			if costs[i+int(o)] > t[k] {
				dominates = false
				break
			}
		}
		if dominates {
			return i
		}
	}
	return -1
}

// evictGeneric is the oracle's eviction scan: rows the candidate dominates
// (no objective of ids with c > row) are dropped, survivors are compacted in
// place preserving storage order.
func (a *FlatArchive) evictGeneric(ids []objective.ID, c *objective.Vector) {
	out := 0
	n := len(a.recs)
	for i := 0; i < n; i++ {
		base := i * stride
		dominated := true
		for _, o := range ids {
			if c[o] > a.costs[base+int(o)] {
				dominated = false
				break
			}
		}
		if dominated {
			a.evicted++
			continue
		}
		if out != i {
			copy(a.costs[out*stride:(out+1)*stride], a.costs[base:base+stride])
			a.recs[out] = a.recs[i]
		}
		out++
	}
	a.recs = a.recs[:out]
	a.costs = a.costs[:out*stride]
}

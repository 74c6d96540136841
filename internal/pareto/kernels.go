package pareto

import "moqo/internal/objective"

// Branch-reduced dominance kernels for FlatArchive.Insert.
//
// Insert spends its time in two scans over the stride-9 cost rows: the
// approximate-dominance rejection scan (does any stored row r satisfy
// r[o] <= c[o]*alpha[o] on every active objective?) and the exact-dominance
// eviction scan (which stored rows satisfy c[o] <= r[o] on every active
// objective?). The generic loops branch per objective per row, which stalls
// the pipeline on unpredictable comparisons and blocks vectorization.
//
// The kernels below restructure both scans for the narrow active-objective
// widths — 2 (the bench default), 3 (the TPC-H triple) and 4 — so that
// each row contributes one flag computed without data-dependent branches:
// every comparison becomes a SETcc-style 0/1 value (b2u) and the per-
// objective results are combined with integer AND. The only branch left per
// row (or per unrolled row group) tests the combined flag, which is highly
// predictable (almost always "keep scanning"). Per-candidate thresholds
// t[k] = c[o_k]*alpha[k] are hoisted out of the row loop; the generic path
// computed the identical product per row, so hoisting cannot change results
// (same inputs, same operation, same rounding).
//
// Widths of five and more run the generic early-exit loops: InsertRowNear's
// last-rejector hints keep most inserts away from the scans, and a wide row
// that fails on its first or second objective is cheaper to leave early than
// to fold nine comparisons for (cold_w1 ops_per_s 121-123 with branch-free
// five-, six- and nine-wide kernels, 147 without). At two to four objectives
// the fold is short and still wins (restart_ready_ms 7.1 against 7.8 through
// the generic loops).
//
// What still scans is mostly a candidate that some stored row does reject —
// counted over a cold_w1 round, scans that end in a rejection outnumber full
// passes several times over — and the rejecting row sits near the last one,
// not near row 0. So a rejection scan takes a run of rows, not the archive:
// FlatArchive.rejectingRow calls it on costs[hint:] and then on costs[:hint],
// through FlatConfig.firstRowLeq, the one caller these kernels have. A scan
// returns the offset of the rejecting row within its run (-1 for none), so
// InsertRowNear can point both hints at it.
//
// The specialized kernels compare with <= and the generic loops with "not >",
// which is the same question except on a NaN. An archive that has met a NaN
// threshold is routed to the generic loops for good (FlatArchive.scanKind);
// the kernels themselves stay as they are (!(row > t) in SETcc form costs a
// parity fix-up per comparison: cold_w1 -7 %).
//
// The generic early-exit loops are also insertGeneric, the differential
// oracle: TestKernelMatchesGenericOracle and TestHintMatchesGenericOracle
// drive streams through both paths and demand bit-identical archives and
// counters.

// kernelKind selects the specialized Insert path, resolved once per
// FlatConfig so the hot loop dispatches on a plain switch.
type kernelKind uint8

const (
	kernelGeneric kernelKind = iota // any objective subset; early-exit scalar loops
	kernel2                         // exactly two active objectives
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

// anyRowLeq2 returns the offset of the first stride-9 row in costs that is
// <= the two thresholds on both active objectives, or -1 — the rejection
// scan for two-wide configurations. Rows are processed four at a time; each
// row folds into a branch-free flag, and one predictable branch tests the
// group.
func anyRowLeq2(costs []float64, o0, o1 int, t0, t1 float64) int {
	n := len(costs)
	i := 0
	for ; i+4*stride <= n; i += 4 * stride {
		f0 := b2u(costs[i+o0] <= t0) & b2u(costs[i+o1] <= t1)
		f1 := b2u(costs[i+stride+o0] <= t0) & b2u(costs[i+stride+o1] <= t1)
		f2 := b2u(costs[i+2*stride+o0] <= t0) & b2u(costs[i+2*stride+o1] <= t1)
		f3 := b2u(costs[i+3*stride+o0] <= t0) & b2u(costs[i+3*stride+o1] <= t1)
		if f0|f1|f2|f3 != 0 {
			return firstOfFour(i, f0, f1, f2)
		}
	}
	for ; i < n; i += stride {
		if b2u(costs[i+o0] <= t0)&b2u(costs[i+o1] <= t1) != 0 {
			return i
		}
	}
	return -1
}

// firstOfFour returns the offset of the first of the four rows from i whose
// flag is set, given that one of f0..f3 is.
func firstOfFour(i int, f0, f1, f2 uint32) int {
	switch {
	case f0 != 0:
		return i
	case f1 != 0:
		return i + stride
	case f2 != 0:
		return i + 2*stride
	}
	return i + 3*stride
}

// anyRowLeq3 is anyRowLeq2 for three active objectives.
func anyRowLeq3(costs []float64, o0, o1, o2 int, t0, t1, t2 float64) int {
	n := len(costs)
	i := 0
	for ; i+4*stride <= n; i += 4 * stride {
		f0 := b2u(costs[i+o0] <= t0) & b2u(costs[i+o1] <= t1) & b2u(costs[i+o2] <= t2)
		f1 := b2u(costs[i+stride+o0] <= t0) & b2u(costs[i+stride+o1] <= t1) & b2u(costs[i+stride+o2] <= t2)
		f2 := b2u(costs[i+2*stride+o0] <= t0) & b2u(costs[i+2*stride+o1] <= t1) & b2u(costs[i+2*stride+o2] <= t2)
		f3 := b2u(costs[i+3*stride+o0] <= t0) & b2u(costs[i+3*stride+o1] <= t1) & b2u(costs[i+3*stride+o2] <= t2)
		if f0|f1|f2|f3 != 0 {
			return firstOfFour(i, f0, f1, f2)
		}
	}
	for ; i < n; i += stride {
		if b2u(costs[i+o0] <= t0)&b2u(costs[i+o1] <= t1)&b2u(costs[i+o2] <= t2) != 0 {
			return i
		}
	}
	return -1
}

// anyRowLeq4 is anyRowLeq2 for four active objectives.
func anyRowLeq4(costs []float64, o0, o1, o2, o3 int, t0, t1, t2, t3 float64) int {
	n := len(costs)
	i := 0
	for ; i+4*stride <= n; i += 4 * stride {
		f0 := b2u(costs[i+o0] <= t0) & b2u(costs[i+o1] <= t1) & b2u(costs[i+o2] <= t2) & b2u(costs[i+o3] <= t3)
		f1 := b2u(costs[i+stride+o0] <= t0) & b2u(costs[i+stride+o1] <= t1) & b2u(costs[i+stride+o2] <= t2) & b2u(costs[i+stride+o3] <= t3)
		f2 := b2u(costs[i+2*stride+o0] <= t0) & b2u(costs[i+2*stride+o1] <= t1) & b2u(costs[i+2*stride+o2] <= t2) & b2u(costs[i+2*stride+o3] <= t3)
		f3 := b2u(costs[i+3*stride+o0] <= t0) & b2u(costs[i+3*stride+o1] <= t1) & b2u(costs[i+3*stride+o2] <= t2) & b2u(costs[i+3*stride+o3] <= t3)
		if f0|f1|f2|f3 != 0 {
			return firstOfFour(i, f0, f1, f2)
		}
	}
	for ; i < n; i += stride {
		if b2u(costs[i+o0] <= t0)&b2u(costs[i+o1] <= t1)&b2u(costs[i+o2] <= t2)&b2u(costs[i+o3] <= t3) != 0 {
			return i
		}
	}
	return -1
}

// anyRowLeqGeneric is the rejection scan for arbitrary objective subsets —
// the original early-exit loop, also serving as the differential oracle for
// the specialized kernels above.
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

// evict2 is the eviction-and-compaction scan for two-wide configurations:
// rows the candidate dominates (c <= row on both active objectives) are
// dropped, survivors are compacted in place preserving order. The per-row
// dominance flag is branch-free; the compaction branch on it remains, since
// compaction is inherently sequential.
func (a *FlatArchive) evict2(o0, o1 int, c0, c1 float64) {
	out := 0
	n := len(a.entries)
	for i := 0; i < n; i++ {
		base := i * stride
		if b2u(c0 <= a.costs[base+o0])&b2u(c1 <= a.costs[base+o1]) != 0 {
			a.evicted++
			continue
		}
		if out != i {
			copy(a.costs[out*stride:(out+1)*stride], a.costs[base:base+stride])
			a.entries[out] = a.entries[i]
		}
		out++
	}
	a.entries = a.entries[:out]
	a.costs = a.costs[:out*stride]
}

// evict3 is evict2 for three active objectives.
func (a *FlatArchive) evict3(o0, o1, o2 int, c0, c1, c2 float64) {
	out := 0
	n := len(a.entries)
	for i := 0; i < n; i++ {
		base := i * stride
		if b2u(c0 <= a.costs[base+o0])&b2u(c1 <= a.costs[base+o1])&b2u(c2 <= a.costs[base+o2]) != 0 {
			a.evicted++
			continue
		}
		if out != i {
			copy(a.costs[out*stride:(out+1)*stride], a.costs[base:base+stride])
			a.entries[out] = a.entries[i]
		}
		out++
	}
	a.entries = a.entries[:out]
	a.costs = a.costs[:out*stride]
}

// evict4 is evict2 for four active objectives.
func (a *FlatArchive) evict4(o0, o1, o2, o3 int, c0, c1, c2, c3 float64) {
	out := 0
	n := len(a.entries)
	for i := 0; i < n; i++ {
		base := i * stride
		if b2u(c0 <= a.costs[base+o0])&b2u(c1 <= a.costs[base+o1])&
			b2u(c2 <= a.costs[base+o2])&b2u(c3 <= a.costs[base+o3]) != 0 {
			a.evicted++
			continue
		}
		if out != i {
			copy(a.costs[out*stride:(out+1)*stride], a.costs[base:base+stride])
			a.entries[out] = a.entries[i]
		}
		out++
	}
	a.entries = a.entries[:out]
	a.costs = a.costs[:out*stride]
}

// evictGeneric is the eviction scan for arbitrary objective subsets — the
// original early-exit loop, also the oracle for the specialized kernels.
func (a *FlatArchive) evictGeneric(ids []objective.ID, c *objective.Vector) {
	out := 0
	n := len(a.entries)
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
			a.entries[out] = a.entries[i]
		}
		out++
	}
	a.entries = a.entries[:out]
	a.costs = a.costs[:out*stride]
}

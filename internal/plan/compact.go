package plan

import (
	"fmt"

	"moqo/internal/objective"
	"moqo/internal/query"
)

// Entry is the compact candidate encoding of the dynamic program's hot
// path. Instead of heap-allocating a *Node tree per candidate, the engine
// describes a candidate by its operator code plus references to the two
// sub-plans it combines: the operand table sets and the sub-plans' indexes
// within the flat archives of those sets. A full Node tree is reconstructed
// from an Entry chain only at frontier extraction (see Materializer), so
// trees exist only for the handful of plans a caller actually sees.
//
// A scan entry has LeftSet == 0 (and no operand references); a join entry
// references both operands, except for index-nested-loop joins whose inner
// side is a synthetic index probe (RightIdx == SyntheticInner) rather than
// a stored sub-plan.
type Entry struct {
	// Op encodes the operator and its parameters: the scan algorithm and
	// sample-rate index for scans, the join algorithm and DOP for joins.
	Op int32
	// LeftIdx/RightIdx are the operand plans' indexes within the archives
	// of LeftSet/RightSet.
	LeftIdx, RightIdx int32
	// LeftSet/RightSet are the operand table sets (both zero for scans).
	LeftSet, RightSet query.TableSet
}

// SyntheticInner marks the inner side of an index-nested-loop join: the
// operand is an index probe of the base relation RightSet, not a stored
// sub-plan, so it carries no archive index.
const SyntheticInner int32 = -1

// opShift separates the algorithm bits of an op code from its parameter
// (sample-rate index or DOP).
const opShift = 8

// ScanEntry encodes a scan operator. rate must be zero or one of
// SampleRates (the engine's plan space admits no other rates).
func ScanEntry(alg ScanAlg, rate float64) Entry {
	return Entry{Op: int32(alg)<<opShift | int32(rateIndex(alg, rate))}
}

// JoinEntry encodes a join of two stored sub-plans.
func JoinEntry(alg JoinAlg, dop int, leftSet query.TableSet, leftIdx int32, rightSet query.TableSet, rightIdx int32) Entry {
	return Entry{
		Op:       int32(alg)<<opShift | int32(dop),
		LeftSet:  leftSet,
		LeftIdx:  leftIdx,
		RightSet: rightSet,
		RightIdx: rightIdx,
	}
}

// IndexNLEntry encodes an index-nested-loop join of a stored outer
// sub-plan with an index probe of the inner base relation.
func IndexNLEntry(leftSet query.TableSet, leftIdx int32, innerRel int) Entry {
	return Entry{
		Op:       int32(IndexNLJoin)<<opShift | 1,
		LeftSet:  leftSet,
		LeftIdx:  leftIdx,
		RightSet: query.Singleton(innerRel),
		RightIdx: SyntheticInner,
	}
}

// rateIndex maps a sampling rate to its index in SampleRates (0 for
// non-sampling scans, whose op code carries no rate).
func rateIndex(alg ScanAlg, rate float64) int {
	if alg != SampleScan {
		return 0
	}
	for i, r := range SampleRates {
		if r == rate {
			return i
		}
	}
	panic(fmt.Sprintf("plan: sample rate %v not in SampleRates", rate))
}

// IsScan reports whether the entry encodes a scan operator.
func (e Entry) IsScan() bool { return e.LeftSet == 0 }

// ScanOp decodes a scan entry's algorithm and sampling rate.
func (e Entry) ScanOp() (ScanAlg, float64) {
	alg := ScanAlg(e.Op >> opShift)
	if alg == SampleScan {
		return alg, SampleRates[e.Op&(1<<opShift-1)]
	}
	return alg, 0
}

// JoinOp decodes a join entry's algorithm and degree of parallelism.
func (e Entry) JoinOp() (JoinAlg, int) {
	return JoinAlg(e.Op >> opShift), int(e.Op & (1<<opShift - 1))
}

// DenseMemo is a closed memo whose stored plans are numbered densely, from
// 0 to Size's plans-1: every reference an entry holds resolves inside it.
// Every finished run's frontier is one: its rows first, then the rows of
// each table set they transitively reference.
type DenseMemo interface {
	// Lookup returns the number, the entry and the cost vector of the
	// idx-th plan stored for table set s. The vector is the memo's own and
	// must not be modified.
	Lookup(s query.TableSet, idx int32) (slot int, e Entry, cost *objective.Vector)
	// Size returns how many plans the memo stores, and how many of them
	// are index-nested-loop joins: each materializes one node more, its
	// index-probe inner.
	Size() (plans, probes int)
}

// Materializer reconstructs Node trees from the compact entries of a
// DenseMemo. Sub-plans are cached by number, so plans extracted from the
// same memo share their common subtrees bottom-up — the
// O(1)-space-per-stored-plan sharing of the dynamic program (proof of
// Theorem 1) survives materialization. Index-probe inners are the
// exception: every index-nested-loop join gets its own. The nodes come
// from one slab holding every node a full materialization can need.
type Materializer struct {
	memo  DenseMemo
	slots []*Node
	// slab holds the nodes not yet handed out.
	slab []Node
}

// NewDenseMaterializer creates a materializer over a closed, densely
// numbered memo.
func NewDenseMaterializer(d DenseMemo) *Materializer {
	plans, probes := d.Size()
	return &Materializer{memo: d, slots: make([]*Node, plans), slab: make([]Node, plans+probes)}
}

// node hands out the next node of the slab. The slab never runs dry: each
// stored plan is built once, with at most one index-probe inner.
func (mt *Materializer) node() *Node {
	n := &mt.slab[0]
	mt.slab = mt.slab[1:]
	return n
}

// Plan reconstructs the Node tree of the idx-th plan stored for table set s.
func (mt *Materializer) Plan(s query.TableSet, idx int32) *Node {
	slot, e, cost := mt.memo.Lookup(s, idx)
	if mt.slots[slot] == nil {
		mt.slots[slot] = mt.build(s, e, cost)
	}
	return mt.slots[slot]
}

// build makes the node of one stored plan of table set s, materializing
// its operands through Plan.
func (mt *Materializer) build(s query.TableSet, e Entry, cost *objective.Vector) *Node {
	n := mt.node()
	n.Tables, n.Cost = s, *cost
	if e.IsScan() {
		n.Scan, n.SampleRate = e.ScanOp()
		n.Relation = s.First()
		return n
	}
	n.Join, n.DOP = e.JoinOp()
	if e.RightIdx == SyntheticInner {
		// Index-nested-loop inner: a plain index-probe marker whose cost
		// is folded into the join (see costmodel.NewIndexNL).
		n.Right = mt.node()
		*n.Right = Node{Tables: e.RightSet, Scan: IndexScan, Relation: e.RightSet.First()}
	} else {
		n.Right = mt.Plan(e.RightSet, e.RightIdx)
	}
	n.Left = mt.Plan(e.LeftSet, e.LeftIdx)
	return n
}

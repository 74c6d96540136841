package plan

import (
	"fmt"
	"strconv"
	"strings"

	"moqo/internal/objective"
	"moqo/internal/query"
)

// ScanAlg enumerates scan operator algorithms.
type ScanAlg int

// Scan algorithms.
const (
	SeqScan ScanAlg = iota
	IndexScan
	SampleScan
)

func (a ScanAlg) String() string {
	switch a {
	case SeqScan:
		return "SeqScan"
	case IndexScan:
		return "IdxScan"
	case SampleScan:
		return "SampleScan"
	default:
		return fmt.Sprintf("ScanAlg(%d)", int(a))
	}
}

// JoinAlg enumerates join operator algorithms.
type JoinAlg int

// Join algorithms.
const (
	HashJoin JoinAlg = iota
	SortMergeJoin
	IndexNLJoin
	BlockNLJoin
)

func (a JoinAlg) String() string {
	switch a {
	case HashJoin:
		return "HashJ"
	case SortMergeJoin:
		return "SMJ"
	case IndexNLJoin:
		return "IdxNL"
	case BlockNLJoin:
		return "BNL"
	default:
		return fmt.Sprintf("JoinAlg(%d)", int(a))
	}
}

// MaxDOP is the maximal degree of parallelism per operator ("up to 4 cores
// can be used per operation").
const MaxDOP = 4

// SampleRates are the available sampling-scan rates ("scans between 1% and
// 5% of a base table").
var SampleRates = []float64{0.01, 0.02, 0.03, 0.04, 0.05}

// Node is an immutable query plan node: either a scan of one relation or a
// join of two sub-plans. Plans are shared bottom-up by the dynamic program,
// so a stored plan needs O(1) space beyond its sub-plans, matching the
// paper's space accounting (proof of Theorem 1).
type Node struct {
	// Tables is the set of relations the plan produces.
	Tables query.TableSet

	// Scan fields (Left == nil).
	Scan       ScanAlg
	Relation   int     // relation index within the query
	SampleRate float64 // only for SampleScan

	// Join fields (Left != nil).
	Join        JoinAlg
	Left, Right *Node
	DOP         int // degree of parallelism; 1 for sequential operators

	// Cost is the plan's multi-dimensional cost vector.
	Cost objective.Vector
}

// IsScan reports whether the node is a leaf scan.
func (n *Node) IsScan() bool { return n.Left == nil }

// OperatorLabel renders the node's operator with its parameters, e.g.
// "HashJ(dop=2)" or "SampleScan(3%)".
func (n *Node) OperatorLabel() string { return string(n.appendOperatorLabel(nil)) }

// appendOperatorLabel appends the node's OperatorLabel to b: the one label
// writer behind Explain, Format, Signature and the JSON rendering.
func (n *Node) appendOperatorLabel(b []byte) []byte {
	if n.IsScan() {
		b = append(b, n.Scan.String()...)
		if n.Scan == SampleScan {
			b = append(b, '(')
			b = strconv.AppendFloat(b, n.SampleRate*100, 'f', 0, 64)
			b = append(b, "%)"...)
		}
		return b
	}
	b = append(b, n.Join.String()...)
	if n.DOP > 1 {
		b = append(b, "(dop="...)
		b = strconv.AppendInt(b, int64(n.DOP), 10)
		b = append(b, ')')
	}
	return b
}

// NumOperators returns the number of operator nodes in the plan tree.
func (n *Node) NumOperators() int {
	if n.IsScan() {
		return 1
	}
	return 1 + n.Left.NumOperators() + n.Right.NumOperators()
}

// Depth returns the height of the plan tree (a single scan has depth 1).
func (n *Node) Depth() int {
	if n.IsScan() {
		return 1
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// Scans returns the scan leaves of the plan in left-to-right order.
func (n *Node) Scans() []*Node {
	if n.IsScan() {
		return []*Node{n}
	}
	return append(n.Left.Scans(), n.Right.Scans()...)
}

// Validate checks structural invariants against the query: partitioned
// table sets, relation indexes in range, sample rates in the legal range,
// DOP within limits, and non-negative finite costs.
func (n *Node) Validate(q *query.Query) error {
	if !n.Cost.Valid() {
		return fmt.Errorf("plan %v: invalid cost vector", n.Tables)
	}
	if n.IsScan() {
		if n.Relation < 0 || n.Relation >= q.NumRelations() {
			return fmt.Errorf("scan of unknown relation %d", n.Relation)
		}
		if n.Tables != query.Singleton(n.Relation) {
			return fmt.Errorf("scan table set %v does not match relation %d", n.Tables, n.Relation)
		}
		if n.Scan == SampleScan && (n.SampleRate < SampleRates[0] || n.SampleRate > SampleRates[len(SampleRates)-1]) {
			return fmt.Errorf("sample rate %v out of range", n.SampleRate)
		}
		return nil
	}
	if n.Right == nil {
		return fmt.Errorf("join node with single child")
	}
	if !n.Left.Tables.Disjoint(n.Right.Tables) {
		return fmt.Errorf("join operands overlap: %v and %v", n.Left.Tables, n.Right.Tables)
	}
	if n.Left.Tables.Union(n.Right.Tables) != n.Tables {
		return fmt.Errorf("join table set %v is not the union of its operands", n.Tables)
	}
	if n.DOP < 1 || n.DOP > MaxDOP {
		return fmt.Errorf("join DOP %d out of range", n.DOP)
	}
	if n.Join == IndexNLJoin && n.DOP != 1 {
		return fmt.Errorf("index-nested-loop join must be sequential")
	}
	if err := n.Left.Validate(q); err != nil {
		return err
	}
	return n.Right.Validate(q)
}

// Format renders the plan as an indented operator tree with relation
// aliases, the representation used by the Figure 3 experiment.
func (n *Node) Format(q *query.Query) string {
	var b strings.Builder
	n.format(q, &b, 0)
	return b.String()
}

func (n *Node) format(q *query.Query, b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	if n.IsScan() {
		fmt.Fprintf(b, "%s %s\n", n.OperatorLabel(), q.Relations[n.Relation].Alias)
		return
	}
	fmt.Fprintf(b, "%s\n", n.OperatorLabel())
	n.Left.format(q, b, depth+1)
	n.Right.format(q, b, depth+1)
}

// Signature renders the plan structure compactly on one line, e.g.
// "HashJ(SeqScan c, IdxNL(SeqScan o, IdxScan l))". Useful for comparing
// plans in tests.
func (n *Node) Signature(q *query.Query) string {
	if n.IsScan() {
		return n.OperatorLabel() + " " + q.Relations[n.Relation].Alias
	}
	return n.OperatorLabel() + "(" + n.Left.Signature(q) + ", " + n.Right.Signature(q) + ")"
}

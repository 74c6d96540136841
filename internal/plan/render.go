package plan

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"moqo/internal/objective"
	"moqo/internal/query"
)

// JSON renders the plan as compact JSON, the stable machine-readable plan
// format of the library (moqod responses, the CLI's -json output). Each
// node is one object with these fields, in this order:
//
//	operator     the operator label (OperatorLabel)
//	relation     a scan's relation alias, omitted when empty
//	sample_rate  a sampling scan's rate, omitted when zero
//	dop          a join's degree of parallelism, omitted for sequential joins
//	rows         the estimated output cardinality
//	cost         the costs of the objectives of objs, keyed by name in name order
//	children     a join's two operands, omitted for scans
//
// The bytes are exactly what encoding/json writes for that tree: its number
// format and its HTML-safe string escaping, which aliases (client strings)
// need. The rendering is one pass into one buffer, without reflection. A NaN
// or infinite number fails it with the error encoding/json gives.
func (n *Node) JSON(q *query.Query, objs objective.Set) ([]byte, error) {
	r := renderer{q: q, objs: objs}
	r.b = make([]byte, 0, n.NumOperators()*(nodeBytes+costBytes*objs.Len()))
	r.node(n)
	if r.err != nil {
		return nil, r.err
	}
	return r.b, nil
}

// nodeBytes and costBytes size a rendering's buffer: about what one node
// takes without its costs, and what one cost field takes. A longer
// rendering grows the buffer, it is not cut short.
const (
	nodeBytes = 88
	costBytes = 28
)

// costOrder lists the objectives in the order of their names, the order
// encoding/json writes a map's keys in.
var costOrder = func() [objective.NumObjectives]objective.ID {
	var ids [objective.NumObjectives]objective.ID
	for i := range ids {
		ids[i] = objective.ID(i)
	}
	slices.SortFunc(ids[:], func(a, b objective.ID) int { return strings.Compare(a.String(), b.String()) })
	return ids
}()

// renderer appends one plan's JSON to b. err holds the first number JSON
// cannot represent; the pass runs on after it, and JSON discards what it
// wrote.
type renderer struct {
	q    *query.Query
	objs objective.Set
	b    []byte
	err  error
}

func (r *renderer) node(n *Node) {
	// An operator label is letters, digits and "()%=+-": nothing to escape.
	r.b = append(r.b, `{"operator":"`...)
	r.b = n.appendOperatorLabel(r.b)
	r.b = append(r.b, '"')
	if n.IsScan() {
		if alias := r.q.Relations[n.Relation].Alias; alias != "" {
			r.b = append(r.b, `,"relation":`...)
			r.b = appendJSONString(r.b, alias)
		}
		if n.Scan == SampleScan && n.SampleRate != 0 {
			r.b = append(r.b, `,"sample_rate":`...)
			r.number(n.SampleRate)
		}
	} else if n.DOP > 1 {
		r.b = append(r.b, `,"dop":`...)
		r.b = strconv.AppendInt(r.b, int64(n.DOP), 10)
	}
	r.b = append(r.b, `,"rows":`...)
	r.number(r.q.EstimateRows(n.Tables))
	r.b = append(r.b, `,"cost":{`...)
	sep := false
	for _, o := range costOrder {
		if !r.objs.Contains(o) {
			continue
		}
		if sep {
			r.b = append(r.b, ',')
		}
		sep = true
		r.b = append(r.b, '"')
		r.b = append(r.b, o.String()...)
		r.b = append(r.b, `":`...)
		r.number(n.Cost[o])
	}
	r.b = append(r.b, '}')
	if !n.IsScan() {
		r.b = append(r.b, `,"children":[`...)
		r.node(n.Left)
		r.b = append(r.b, ',')
		r.node(n.Right)
		r.b = append(r.b, ']')
	}
	r.b = append(r.b, '}')
}

// number appends x as encoding/json formats a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent written without its leading zero.
func (r *renderer) number(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		if r.err == nil {
			r.err = unsupportedValue(x)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	r.b = strconv.AppendFloat(r.b, x, format, -1, 64)
	if n := len(r.b); format == 'e' && r.b[n-4] == 'e' && r.b[n-3] == '-' && r.b[n-2] == '0' {
		r.b[n-2] = r.b[n-1]
		r.b = r.b[:n-1]
	}
}

// unsupportedValue is the error of a rendering that meets a NaN or an
// infinity, worded as encoding/json words it.
type unsupportedValue float64

func (v unsupportedValue) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(v), 'g', -1, 64)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes by default: quotes, backslashes and control characters, the
// HTML-sensitive <, > and &, and U+2028 and U+2029; each invalid UTF-8
// byte becomes U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Explain renders the plan as an EXPLAIN-style indented tree with
// estimated cardinalities and per-node costs for the active objectives —
// the human-facing counterpart of JSON.
func (n *Node) Explain(q *query.Query, objs objective.Set) string {
	return string(n.appendExplain(nil, q, objs, 0))
}

func (n *Node) appendExplain(b []byte, q *query.Query, objs objective.Set, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	b = n.appendOperatorLabel(b)
	if n.IsScan() {
		b = append(b, ' ')
		b = append(b, q.Relations[n.Relation].Alias...)
	}
	b = append(b, "  (rows="...)
	b = strconv.AppendFloat(b, q.EstimateRows(n.Tables), 'g', 4, 64)
	b = append(b, ") "...)
	b = append(b, n.Cost.FormatOn(objs)...)
	b = append(b, '\n')
	if !n.IsScan() {
		b = n.Left.appendExplain(b, q, objs, depth+1)
		b = n.Right.appendExplain(b, q, objs, depth+1)
	}
	return b
}

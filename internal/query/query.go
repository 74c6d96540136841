package query

import (
	"fmt"

	"moqo/internal/catalog"
)

// Relation is one entry of a query's from-clause: a reference to a base
// table (possibly one of several references to the same table, as in the
// TPC-H queries that join nation twice) plus the combined selectivity of
// the query's filter predicates on that table.
type Relation struct {
	Table     catalog.TableID
	Alias     string  // unique within the query
	FilterSel float64 // in (0,1]; 1 means no filter
}

// JoinEdge is an equi-join predicate between two relations. LeftCol and
// RightCol name the join columns, which determines index applicability for
// index-nested-loop joins. Selectivity is the predicate's selectivity
// relative to the Cartesian product of the operands.
type JoinEdge struct {
	Left, Right       int // relation indexes
	LeftCol, RightCol string
	Selectivity       float64
}

// Query is a join query: relations plus join edges. AddRelation and AddJoin
// build it, on one goroutine; nothing else writes to it, so a built query
// is safe for concurrent use — every other method is a pure function of
// the relations, the edges and the catalog.
type Query struct {
	Name      string
	Relations []Relation
	Edges     []JoinEdge

	cat *catalog.Catalog

	// adjacency[i] is the bitset of relations sharing an edge with i.
	adjacency []TableSet
}

// New creates an empty query against the given catalog.
func New(name string, cat *catalog.Catalog) *Query {
	return &Query{Name: name, cat: cat}
}

// Catalog returns the catalog the query is defined against.
func (q *Query) Catalog() *catalog.Catalog { return q.cat }

// AddRelation appends a relation and returns its index.
func (q *Query) AddRelation(table string, alias string, filterSel float64) int {
	if filterSel <= 0 || filterSel > 1 {
		panic(fmt.Sprintf("query %s: filter selectivity %v out of (0,1] for %s", q.Name, filterSel, alias))
	}
	if len(q.Relations) >= 64 {
		panic("query: too many relations (max 64)")
	}
	for _, r := range q.Relations {
		if r.Alias == alias {
			panic(fmt.Sprintf("query %s: duplicate alias %q", q.Name, alias))
		}
	}
	id := q.cat.MustLookup(table)
	q.Relations = append(q.Relations, Relation{Table: id, Alias: alias, FilterSel: filterSel})
	q.adjacency = append(q.adjacency, 0)
	return len(q.Relations) - 1
}

// AddJoin appends an equi-join edge between relations l and r with the given
// join columns and selectivity.
func (q *Query) AddJoin(l, r int, lcol, rcol string, sel float64) {
	if l == r || l < 0 || r < 0 || l >= len(q.Relations) || r >= len(q.Relations) {
		panic(fmt.Sprintf("query %s: bad join edge %d-%d", q.Name, l, r))
	}
	if sel <= 0 || sel > 1 {
		panic(fmt.Sprintf("query %s: join selectivity %v out of (0,1]", q.Name, sel))
	}
	q.Edges = append(q.Edges, JoinEdge{Left: l, Right: r, LeftCol: lcol, RightCol: rcol, Selectivity: sel})
	q.adjacency[l] = q.adjacency[l].Add(r)
	q.adjacency[r] = q.adjacency[r].Add(l)
}

// AddFKJoin appends a foreign-key join edge whose selectivity is derived
// from the catalog: 1 / rows(PK side), the textbook estimate for key/
// foreign-key joins. pkRel must be the relation holding the primary key.
func (q *Query) AddFKJoin(fkRel int, fkCol string, pkRel int, pkCol string) {
	pkRows := q.cat.Table(q.Relations[pkRel].Table).Rows
	if pkRows < 1 {
		pkRows = 1
	}
	q.AddJoin(fkRel, pkRel, fkCol, pkCol, 1/pkRows)
}

// NumRelations returns the number of relations in the from-clause.
func (q *Query) NumRelations() int { return len(q.Relations) }

// AllTables returns the set of all relations of the query.
func (q *Query) AllTables() TableSet { return FullSet(len(q.Relations)) }

// Neighbors returns the relations adjacent (via some join edge) to any
// relation in s, excluding s itself. It iterates the bitset directly (no
// intermediate slice): the optimizer's split enumeration calls it per
// split via ConnectedTo, where an allocation would dominate the cost.
func (q *Query) Neighbors(s TableSet) TableSet {
	var n TableSet
	for v := s; v != 0; v &= v - 1 {
		n |= q.adjacency[v.First()]
	}
	return n.Minus(s)
}

// Connected reports whether the relations of s form a connected subgraph of
// the join graph. Singleton sets are connected; the empty set is not.
func (q *Query) Connected(s TableSet) bool {
	if s.Empty() {
		return false
	}
	frontier := Singleton(s.First())
	reached := frontier
	for !frontier.Empty() {
		next := q.Neighbors(reached).Intersect(s)
		if next.Empty() {
			break
		}
		reached = reached.Union(next)
		frontier = next
	}
	return reached == s
}

// ConnectedTo reports whether some join edge crosses between sets a and b,
// i.e. joining them is not a Cartesian product.
func (q *Query) ConnectedTo(a, b TableSet) bool {
	return !q.Neighbors(a).Intersect(b).Empty()
}

// CrossingEdges returns the join edges with one endpoint in a and the other
// in b.
func (q *Query) CrossingEdges(a, b TableSet) []JoinEdge {
	var out []JoinEdge
	for _, e := range q.Edges {
		if (a.Contains(e.Left) && b.Contains(e.Right)) ||
			(a.Contains(e.Right) && b.Contains(e.Left)) {
			out = append(out, e)
		}
	}
	return out
}

// EstimateRows estimates the result cardinality of joining (and filtering)
// the relations of s: the product of filtered base cardinalities times the
// product of the selectivities of all join edges internal to s. The
// estimate depends only on the table set, never on the plan — the premise
// of the paper's Observation 2 — and the factors are multiplied in one fixed
// order (relations ascending, then edges as declared), so it has the same
// bits on every call. It is computed afresh each time: a run that asks for
// the same sets over and over keeps its own table (costmodel.Model).
func (q *Query) EstimateRows(s TableSet) float64 {
	if s.Empty() {
		return 0
	}
	card := 1.0
	for v := s; v != 0; v &= v - 1 {
		rel := &q.Relations[v.First()]
		card *= q.cat.Table(rel.Table).Rows * rel.FilterSel
	}
	for _, e := range q.Edges {
		if s.Contains(e.Left) && s.Contains(e.Right) {
			card *= e.Selectivity
		}
	}
	if card < 1 {
		card = 1
	}
	return card
}

// EstimateWidth estimates the average output tuple width in bytes for the
// relations of s (sum of base widths — joins concatenate tuples). Like
// EstimateRows it is a pure function of the set.
func (q *Query) EstimateWidth(s TableSet) int {
	w := 0
	for v := s; v != 0; v &= v - 1 {
		w += q.cat.Table(q.Relations[v.First()].Table).Width
	}
	if w <= 0 {
		w = 1
	}
	return w
}

// Validate checks structural well-formedness: at least one relation and a
// connected join graph (the TPC-H queries are all connected; a disconnected
// one would force Cartesian products, which the optimizer does not
// enumerate — internal/core refuses such a query with this error).
func (q *Query) Validate() error {
	if len(q.Relations) == 0 {
		return fmt.Errorf("query %s: no relations", q.Name)
	}
	if len(q.Relations) > 1 && !q.Connected(q.AllTables()) {
		return fmt.Errorf("query %s: join graph not connected", q.Name)
	}
	return nil
}

// String renders the query's structure for diagnostics.
func (q *Query) String() string {
	s := fmt.Sprintf("query %s: %d relations", q.Name, len(q.Relations))
	for i, r := range q.Relations {
		s += fmt.Sprintf("\n  [%d] %s (table=%d sel=%.3g)", i, r.Alias, r.Table, r.FilterSel)
	}
	for _, e := range q.Edges {
		s += fmt.Sprintf("\n  join %d.%s = %d.%s (sel=%.3g)", e.Left, e.LeftCol, e.Right, e.RightCol, e.Selectivity)
	}
	return s
}

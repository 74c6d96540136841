package catalog

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync/atomic"
)

// PageSize is the buffer/disk page size in bytes (Postgres default).
const PageSize = 8192

// TableID identifies a base table of the catalog.
type TableID int

// Table describes a base table's statistics.
type Table struct {
	ID       TableID
	Name     string
	Rows     float64 // cardinality
	Width    int     // average tuple width in bytes
	PKColumn string  // primary-key column (always indexed)
}

// Pages returns the number of pages the table occupies.
func (t *Table) Pages() float64 {
	p := t.Rows * float64(t.Width) / PageSize
	if p < 1 {
		return 1
	}
	return p
}

// Index describes a secondary or primary index on a single column.
type Index struct {
	Table  TableID
	Column string
	Unique bool
}

// Catalog is a collection of tables and indexes with lookup helpers.
type Catalog struct {
	tables  []Table
	byName  map[string]TableID
	indexes map[TableID]map[string]Index
	// fp caches Fingerprint (0 = not yet computed; the sentinel only
	// costs a recompute in the astronomically unlikely case the hash is
	// exactly 0). AddTable/AddIndex reset it. Atomic because finished
	// catalogs are shared across request goroutines, each of which may
	// fingerprint concurrently.
	fp atomic.Uint64
}

// New builds an empty catalog.
func New() *Catalog {
	return &Catalog{
		byName:  make(map[string]TableID),
		indexes: make(map[TableID]map[string]Index),
	}
}

// AddTable registers a table and returns its ID. The primary-key column, if
// non-empty, is automatically indexed (unique).
func (c *Catalog) AddTable(name string, rows float64, width int, pkColumn string) TableID {
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("catalog: duplicate table %q", name))
	}
	if rows < 0 || width <= 0 {
		panic(fmt.Sprintf("catalog: invalid statistics for table %q", name))
	}
	id := TableID(len(c.tables))
	c.tables = append(c.tables, Table{ID: id, Name: name, Rows: rows, Width: width, PKColumn: pkColumn})
	c.byName[name] = id
	c.fp.Store(0)
	if pkColumn != "" {
		c.AddIndex(id, pkColumn, true)
	}
	return id
}

// AddIndex registers an index on a table column.
func (c *Catalog) AddIndex(t TableID, column string, unique bool) {
	if int(t) >= len(c.tables) {
		panic("catalog: index on unknown table")
	}
	m := c.indexes[t]
	if m == nil {
		m = make(map[string]Index)
		c.indexes[t] = m
	}
	m[column] = Index{Table: t, Column: column, Unique: unique}
	c.fp.Store(0)
}

// Table returns the statistics of table t.
func (c *Catalog) Table(t TableID) *Table {
	if int(t) >= len(c.tables) {
		panic(fmt.Sprintf("catalog: unknown table id %d", t))
	}
	return &c.tables[t]
}

// Lookup resolves a table by name.
func (c *Catalog) Lookup(name string) (TableID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustLookup resolves a table by name and panics if absent.
func (c *Catalog) MustLookup(name string) TableID {
	id, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("catalog: unknown table %q", name))
	}
	return id
}

// HasIndex reports whether table t has an index on the given column.
func (c *Catalog) HasIndex(t TableID, column string) bool {
	_, ok := c.indexes[t][column]
	return ok
}

// Indexes returns the indexes of table t sorted by column name.
func (c *Catalog) Indexes(t TableID) []Index {
	m := c.indexes[t]
	out := make([]Index, 0, len(m))
	for _, ix := range m {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Column < out[j].Column })
	return out
}

// NumIndexes returns how many indexes table t has: Indexes' length,
// without building and sorting the list.
func (c *Catalog) NumIndexes(t TableID) int { return len(c.indexes[t]) }

// NumTables returns the number of tables in the catalog.
func (c *Catalog) NumTables() int { return len(c.tables) }

// Fingerprint returns a stable content hash of the catalog — every table's
// name, statistics and primary key plus every index, in canonical order.
// Two catalogs built the same way (e.g. TPCH(1) in two processes) hash
// identically, and any statistics change yields a new fingerprint, which is
// what versions cached optimization results: the cost model reads nothing
// of a catalog beyond the hashed fields. User-controlled strings (table
// and column names) are length-prefixed, so no choice of names can make
// two different catalogs encode — and therefore hash — identically.
//
// The hash is computed on first use and cached — a long-lived catalog
// serves every request's cache-key build without rehashing. AddTable and
// AddIndex invalidate the cache; editing statistics in place through the
// Table pointer after the first Fingerprint call is not tracked (build a
// fresh catalog for a new statistics version, as the tests do).
func (c *Catalog) Fingerprint() uint64 {
	if fp := c.fp.Load(); fp != 0 {
		return fp
	}
	h := fnv.New64a()
	for i := range c.tables {
		t := &c.tables[i]
		fmt.Fprintf(h, "t|%d:%s|%s|%d|%d:%s;", len(t.Name), t.Name,
			strconv.FormatFloat(t.Rows, 'g', -1, 64), t.Width, len(t.PKColumn), t.PKColumn)
		for _, ix := range c.Indexes(t.ID) {
			fmt.Fprintf(h, "i|%d:%s|%t;", len(ix.Column), ix.Column, ix.Unique)
		}
	}
	fp := h.Sum64()
	c.fp.Store(fp)
	return fp
}

// MaxRows returns the maximal cardinality over all base tables — the
// parameter m of the paper's complexity analysis.
func (c *Catalog) MaxRows() float64 {
	var m float64
	for i := range c.tables {
		if c.tables[i].Rows > m {
			m = c.tables[i].Rows
		}
	}
	return m
}

// TPC-H table name constants.
const (
	Region   = "region"
	Nation   = "nation"
	Supplier = "supplier"
	Customer = "customer"
	Part     = "part"
	PartSupp = "partsupp"
	Orders   = "orders"
	Lineitem = "lineitem"
)

// TPCH builds the TPC-H catalog at the given scale factor. Cardinalities
// follow the TPC-H specification; widths are representative average tuple
// sizes in bytes. Primary keys and the standard foreign-key columns are
// indexed, which is what makes index-nested-loop joins applicable.
func TPCH(scaleFactor float64) *Catalog {
	if scaleFactor <= 0 {
		panic("catalog: scale factor must be positive")
	}
	sf := scaleFactor
	c := New()
	region := c.AddTable(Region, 5, 124, "r_regionkey")
	nation := c.AddTable(Nation, 25, 128, "n_nationkey")
	supplier := c.AddTable(Supplier, 10_000*sf, 159, "s_suppkey")
	customer := c.AddTable(Customer, 150_000*sf, 179, "c_custkey")
	c.AddTable(Part, 200_000*sf, 155, "p_partkey")
	partsupp := c.AddTable(PartSupp, 800_000*sf, 144, "ps_partkey")
	orders := c.AddTable(Orders, 1_500_000*sf, 104, "o_orderkey")
	lineitem := c.AddTable(Lineitem, 6_000_000*sf, 112, "l_orderkey")

	// Foreign-key indexes (standard physical design for TPC-H).
	c.AddIndex(nation, "n_regionkey", false)
	c.AddIndex(supplier, "s_nationkey", false)
	c.AddIndex(customer, "c_nationkey", false)
	c.AddIndex(partsupp, "ps_suppkey", false)
	c.AddIndex(orders, "o_custkey", false)
	c.AddIndex(lineitem, "l_partkey", false)
	c.AddIndex(lineitem, "l_suppkey", false)
	// Composite FK of lineitem into partsupp, modeled on the leading column.
	c.AddIndex(lineitem, "l_partsuppkey", false)

	_ = region
	return c
}

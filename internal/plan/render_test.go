package plan

import (
	"math"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/query"
)

// fuzzCorners are the numbers where encoding/json's float format turns:
// zeros of both signs, both sides of 1e-6 and 1e21, subnormals, the
// non-finite values it refuses, and sampling rates %.0f rounds half to even.
var fuzzCorners = []float64{
	0, math.Copysign(0, -1),
	1e-6, math.Nextafter(1e-6, 0), 1e-7, -2.5e-8,
	1e21, math.Nextafter(1e21, 0), -1e21,
	5e-324, 0x1p-1022,
	0.03, 0.025, 0.005, 1.0 / 3, 123.5,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzPlanJSON renders random plans against the reflection-based oracle:
// shape picks the relation count (2–4), the objectives and, node by node, a
// bushy tree's operators, DOPs, sampling rates and costs; alias is cut into
// one alias per relation; rows is the first table's cardinality; cost is one
// more number the shape bytes can pick. The seeds are the files under
// testdata/fuzz/FuzzPlanJSON.
func FuzzPlanJSON(f *testing.F) {
	f.Add([]byte{0, 0x83, 1, 2, 3}, "c<o>&l", 1e6, 42.0)
	f.Fuzz(func(t *testing.T, shape []byte, alias string, rows, cost float64) {
		next := func() byte {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return b
		}
		value := func() float64 {
			switch b := int(next()); {
			case b < len(fuzzCorners):
				return fuzzCorners[b]
			case b == len(fuzzCorners):
				return cost
			default:
				return float64(b) * 37.25
			}
		}
		k := 2 + int(next())%3
		objs := objective.Set(next()) | objective.Set(next()&1)<<8

		cat := catalog.New()
		q := query.New("fuzz", cat)
		for i, r := range []float64{math.Abs(rows), 1e20, 1e3, 7}[:k] {
			name := string(rune('a' + i))
			cat.AddTable(name, r, 100, "")
			q.AddRelation(name, name, 1)
			if i > 0 {
				q.AddJoin(i-1, i, "x", "x", []float64{0.5, 1e-9, 1}[i-1])
			}
		}
		for i := range q.Relations {
			q.Relations[i].Alias = alias[i*len(alias)/k : (i+1)*len(alias)/k]
		}

		var build func(lo, hi int) *Node
		build = func(lo, hi int) *Node {
			var n *Node
			if hi-lo == 1 {
				n = &Node{Tables: query.Singleton(lo), Scan: ScanAlg(next() % 4), Relation: lo, SampleRate: value()}
			} else {
				mid := lo + 1 + int(next())%(hi-lo-1)
				n = join(JoinAlg(next()%5), int(next()%7)-1, build(lo, mid), build(mid, hi))
			}
			for o := range n.Cost {
				n.Cost[o] = value()
			}
			return n
		}
		checkAgainstOracle(t, build(0, k), q, objs)
	})
}

// TestPlanJSONAllocs: a fresh rendering allocates its buffer, and grows it
// at most once where the size estimate falls short, however many nodes the
// plan has. (The twelve-table plan's costs all take 17–18 digits, more than
// real ones do, so on nine objectives it needs the growth.)
func TestPlanJSONAllocs(t *testing.T) {
	const budget = 2
	small, q3 := describedPlan(t)

	cat := catalog.TPCH(1)
	q12 := query.New("twelve", cat)
	tables := []string{catalog.Region, catalog.Nation, catalog.Supplier, catalog.Customer, catalog.Part, catalog.Orders, catalog.Lineitem}
	cost := func(n *Node) *Node {
		for o := range n.Cost {
			n.Cost[o] = 1234.567890123 * float64(o+1) / 7
		}
		return n
	}
	var large *Node
	for i := range 12 {
		rel := q12.AddRelation(tables[i%len(tables)], tables[i%len(tables)]+string(rune('1'+i/len(tables))), 0.5)
		leaf := cost(scan(rel, ScanAlg(i%3)))
		if leaf.Scan == SampleScan {
			leaf.SampleRate = SampleRates[i%len(SampleRates)]
		}
		if large == nil {
			large = leaf
		} else {
			q12.AddJoin(rel-1, rel, "x", "x", 1e-3)
			large = cost(join(JoinAlg(i%4), 1+i%MaxDOP, large, leaf))
		}
	}

	for _, c := range []struct {
		name string
		p    *Node
		q    *query.Query
	}{{"3 tables", small, q3}, {"12 tables", large, q12}} {
		for _, objs := range []objective.Set{describeObjs, objective.AllSet()} {
			checkAgainstOracle(t, c.p, c.q, objs)
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := c.p.JSON(c.q, objs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("%s, %d objectives: %.0f allocations per rendering, budget %d", c.name, objs.Len(), allocs, budget)
			}
		}
	}
}

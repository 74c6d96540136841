package costmodel

import (
	"fmt"
	"math/rand"
	"testing"

	"moqo/internal/catalog"
	"moqo/internal/objective"
	"moqo/internal/plan"
	"moqo/internal/query"
)

// edgeCaseQueries are inline catalogs at the leaves' boundaries: a table
// with zero rows (its cardinality estimate clamps to one row, its size to
// one page) and a table of exactly one page, joined to each other and to a
// large table, with indexes on the join columns so index-nested-loop joins
// probe them.
func edgeCaseQueries() []*query.Query {
	cat := catalog.New()
	empty := cat.AddTable("empty", 0, 40, "e_id")
	page := cat.AddTable("page", catalog.PageSize/64, 64, "p_id")
	big := cat.AddTable("big", 1e7, 120, "b_id")
	tiny := cat.AddTable("tiny", 1, 1, "t_id")
	cat.AddIndex(empty, "e_id", true)
	cat.AddIndex(page, "p_id", true)
	cat.AddIndex(big, "b_eid", false)
	cat.AddIndex(tiny, "t_id", true)

	chain := query.New("edge_chain", cat)
	e := chain.AddRelation("empty", "e", 1)
	p := chain.AddRelation("page", "p", 0.5)
	b := chain.AddRelation("big", "b", 0.01)
	ti := chain.AddRelation("tiny", "t", 1)
	chain.AddJoin(b, e, "b_eid", "e_id", 1)
	chain.AddJoin(e, p, "e_pid", "p_id", 1)
	chain.AddJoin(p, ti, "p_tid", "t_id", 0.5)

	star := query.New("edge_star", cat)
	c := star.AddRelation("page", "c", 1)
	for i, name := range []string{"empty", "big", "tiny"} {
		leaf := star.AddRelation(name, fmt.Sprintf("l%d", i), 1)
		star.AddJoin(c, leaf, "p_id", name[:1]+"_pid", 1e-3)
	}
	return []*query.Query{chain, star}
}

// TestJoinCostUpwardClosed is the property bounds-as-pruning rests on
// (ROADMAP item 19): on every objective, a plan costs at least as much as
// each of its sub-plans, and startup time is at most total time at every
// scan — and so at every join, which the hash and sort-merge joins'
// startup formulas need of their children. It is checked on real plans:
// every scan alternative (sampling included) of every relation, and for
// every connected split, every operator at every DOP over up to
// keepPerSet sub-plans kept per side, all nine objectives compared bit for
// bit with >=.
func TestJoinCostUpwardClosed(t *testing.T) {
	const keepPerSet = 6
	r := rand.New(rand.NewSource(19))
	joins := []plan.JoinAlg{plan.HashJoin, plan.SortMergeJoin, plan.BlockNLJoin}
	for _, q := range append(oracleQueries(t), edgeCaseQueries()...) {
		m := NewDefault(q)
		costs := map[query.TableSet][]objective.Vector{}
		checked := 0
		// check holds plan cost v to startup <= total and, on every
		// objective, to at least each of its sub-plans' costs; what names
		// the plan in a failure.
		check := func(v objective.Vector, what func() string, children ...objective.Vector) {
			checked++
			if v[objective.StartupTime] > v[objective.TotalTime] {
				t.Errorf("%s: %s: startup %v > total %v", q.Name, what(), v[objective.StartupTime], v[objective.TotalTime])
			}
			for _, child := range children {
				for o := objective.ID(0); o < objective.NumObjectives; o++ {
					if v[o] < child[o] {
						t.Errorf("%s: %s: %v %v below the sub-plan's %v", q.Name, what(), o, v[o], child[o])
					}
				}
			}
		}
		for rel := 0; rel < q.NumRelations(); rel++ {
			s := query.Singleton(rel)
			for _, scan := range m.ScanAlternatives(rel, true) {
				check(scan.Cost, func() string { return fmt.Sprintf("scan %v of %d", scan.Scan, rel) })
				costs[s] = append(costs[s], scan.Cost)
			}
		}
		for s := query.TableSet(3); s <= q.AllTables(); s++ {
			if s.Single() || !q.Connected(s) {
				continue
			}
			var out []objective.Vector
			q.EachConnectedSplit(s, func(left, right query.TableSet) bool {
				for _, order := range [][2]query.TableSet{{left, right}, {right, left}} {
					lt, rt := order[0], order[1]
					for _, cl := range costs[lt] {
						for _, cr := range costs[rt] {
							for _, alg := range joins {
								for dop := 1; dop <= plan.MaxDOP; dop++ {
									v := m.JoinCostVec(alg, dop, lt, rt, &cl, &cr)
									check(v, func() string { return fmt.Sprintf("%v dop %d over %v|%v", alg, dop, lt, rt) }, cl, cr)
									out = append(out, v)
								}
							}
						}
						if rt.Single() && m.InnerIndexColumn(lt, rt.First()) != "" {
							v := m.IndexNLCostVec(lt, &cl, rt.First())
							check(v, func() string { return fmt.Sprintf("index NL over %v|%v", lt, rt) }, cl)
							out = append(out, v)
						}
					}
				}
				return true
			})
			// Keep a sample of the set's plans as the sub-plans of the next
			// levels: enough to mix operators, DOPs and scans.
			r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			costs[s] = out[:min(len(out), keepPerSet)]
		}
		if checked == 0 {
			t.Fatalf("%s: no plan was checked", q.Name)
		}
		t.Logf("%s: %d plans checked", q.Name, checked)
	}
}

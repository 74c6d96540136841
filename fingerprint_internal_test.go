package moqo

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/plan"
)

// stringsKey is the key builder as it was before the edges were sorted in
// place — one string per edge, sorted with sort.Strings, then joined — kept
// as the differential oracle of buildKey. It returns the CacheKey and the
// length of its FrontierKey prefix.
func stringsKey(r *Resolved) (string, int) {
	req, objs := r.req, r.objs
	buf := make([]byte, 0, 512)
	buf = append(buf, "moqo2|cat="...)
	cat := req.Query.Catalog()
	buf = appendHex16(buf, cat.Fingerprint())
	buf = append(buf, "|q="...)
	for i, rel := range req.Query.Relations {
		if i > 0 {
			buf = append(buf, ',')
		}
		name := cat.Table(rel.Table).Name
		buf = strconv.AppendInt(buf, int64(len(name)), 10)
		buf = append(buf, ':')
		buf = append(buf, name...)
		buf = append(buf, '=')
		buf = appendFloat(buf, rel.FilterSel)
	}
	buf = append(buf, "|e="...)
	edges := make([]string, 0, len(req.Query.Edges))
	var eb []byte
	for _, e := range req.Query.Edges {
		lo, hi, lc, rc := e.Left, e.Right, e.LeftCol, e.RightCol
		if hi < lo {
			lo, hi, lc, rc = hi, lo, rc, lc
		}
		eb = eb[:0]
		eb = strconv.AppendInt(eb, int64(lo), 10)
		eb = append(eb, '.')
		eb = strconv.AppendInt(eb, int64(len(lc)), 10)
		eb = append(eb, ':')
		eb = append(eb, lc...)
		eb = append(eb, '-')
		eb = strconv.AppendInt(eb, int64(hi), 10)
		eb = append(eb, '.')
		eb = strconv.AppendInt(eb, int64(len(rc)), 10)
		eb = append(eb, ':')
		eb = append(eb, rc...)
		eb = append(eb, '=')
		eb = appendFloat(eb, e.Selectivity)
		edges = append(edges, string(eb))
	}
	sort.Strings(edges)
	for i, e := range edges {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, e...)
	}
	buf = append(buf, "|alg="...)
	buf = append(buf, r.alg.String()...)
	switch r.alg {
	case AlgoRTA, AlgoIRA:
		buf = append(buf, "|alpha="...)
		buf = appendFloat(buf, r.alpha)
	}
	buf = append(buf, "|objs="...)
	for i, o := range req.Objectives {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, o.String()...)
	}
	if len(req.Precisions) > 0 {
		buf = append(buf, "|prec="...)
		buf = appendActive(buf, objs, r.precision())
	}
	maxDOP := req.MaxDOP
	if maxDOP == 0 {
		maxDOP = plan.MaxDOP
	}
	sampling := objs.Contains(objective.TupleLoss)
	if req.AllowSampling != nil {
		sampling = *req.AllowSampling
	}
	buf = append(buf, "|dop="...)
	buf = strconv.AppendInt(buf, int64(maxDOP), 10)
	buf = append(buf, "|smp="...)
	buf = strconv.AppendBool(buf, sampling)
	if req.CostParams != nil && *req.CostParams != costmodel.Default() {
		buf = fmt.Appendf(buf, "|params=%v", *req.CostParams)
	}
	fkLen := len(buf)
	buf = append(buf, "|w="...)
	buf = appendActive(buf, objs, r.w)
	buf = append(buf, "|b="...)
	buf = appendActive(buf, objs, r.b)
	return string(buf), fkLen
}

// keyColumns are join-column names chosen to collide if the length
// prefixes did not separate them: digits, the separators the edge encoding
// uses, and names that read as another name's prefix.
var keyColumns = []string{"", "a", "b", "ab", "1:a", "a-1", "1.a", "a=0.5", "x,y", "10:aaaaaaaaaa", "aaaaaaaaaa", "2", "a.1:b-3"}

// randomKeyQuery draws a connected join graph over 2-13 tables: a random
// spanning tree plus extra edges — sometimes all of them (a clique; 78 edges
// at 13 tables, more than buildKey's stack scratch holds) — with endpoints
// reversed at random, some edges repeated (as written or reversed), and
// column names from keyColumns.
func randomKeyQuery(r *rand.Rand, trial int) *Query {
	cat := NewCatalog()
	n := 2 + r.Intn(12)
	q := NewQuery(fmt.Sprintf("key%d", trial), cat)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d_%s", i, keyColumns[r.Intn(len(keyColumns))])
		cat.AddTable(name, float64(1+r.Intn(1e6)), 8+r.Intn(200), "")
		q.AddRelation(name, fmt.Sprintf("r%d", i), 1/float64(1+r.Intn(100)))
	}
	sel := func() float64 {
		switch r.Intn(3) {
		case 0:
			return 1
		case 1:
			return 1e-7
		}
		return 1 - r.Float64()
	}
	col := func() string { return keyColumns[r.Intn(len(keyColumns))] }
	join := func(a, b int) {
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		q.AddJoin(a, b, col(), col(), sel())
	}
	for i := 1; i < n; i++ {
		join(r.Intn(i), i)
	}
	if r.Intn(4) == 0 {
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				join(a, b)
			}
		}
	} else {
		for k := r.Intn(2 * n); k > 0; k-- {
			if a, b := r.Intn(n), r.Intn(n); a != b {
				join(a, b)
			}
		}
	}
	for k := r.Intn(3); k > 0; k-- {
		e := q.Edges[r.Intn(len(q.Edges))]
		if r.Intn(2) == 0 {
			q.AddJoin(e.Left, e.Right, e.LeftCol, e.RightCol, e.Selectivity)
		} else {
			q.AddJoin(e.Right, e.Left, e.RightCol, e.LeftCol, e.Selectivity)
		}
	}
	return q
}

// TestBuildKeyMatchesStringsKey: the in-place key is the sorted-strings key
// byte for byte — CacheKey and FrontierKey — on random join graphs with
// reversed endpoints, duplicate edges, colliding-looking column names and
// edge counts past the stack scratch, under random knobs.
func TestBuildKeyMatchesStringsKey(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	all := objective.All()
	algs := []Algorithm{AlgoEXA, AlgoRTA, AlgoIRA, AlgoSelinger, AlgoWeightedSum, AlgoAuto}
	spilled := 0
	for trial := 0; trial < 400; trial++ {
		q := randomKeyQuery(r, trial)
		objs := make([]Objective, 0, 4)
		for _, i := range r.Perm(len(all))[:1+r.Intn(4)] {
			objs = append(objs, all[i])
		}
		req := Request{
			Query:      q,
			Algorithm:  algs[r.Intn(len(algs))],
			Alpha:      1 + r.Float64(),
			Objectives: objs,
			MaxDOP:     r.Intn(5),
			Weights:    map[Objective]float64{objs[0]: r.Float64()},
		}
		if req.Algorithm == AlgoEXA || req.Algorithm == AlgoIRA {
			req.Bounds = map[Objective]float64{objs[r.Intn(len(objs))]: 1 + r.Float64()*1e6}
		}
		if req.Algorithm == AlgoRTA && r.Intn(2) == 0 {
			req.Precisions = map[Objective]float64{objs[0]: 1 + r.Float64()}
		}
		if r.Intn(3) == 0 {
			smp := r.Intn(2) == 0
			req.AllowSampling = &smp
		}
		if r.Intn(4) == 0 {
			p := costmodel.Default()
			p.StartupMs = r.Float64()
			req.CostParams = &p
		}
		res, err := req.Resolve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, fkLen := stringsKey(&res)
		if got := res.CacheKey(); got != want {
			t.Fatalf("trial %d: CacheKey differs from the sorted-strings key:\n got %s\nwant %s", trial, got, want)
		}
		if got := res.FrontierKey(); got != want[:fkLen] {
			t.Fatalf("trial %d: FrontierKey differs from the sorted-strings key:\n got %s\nwant %s", trial, got, want[:fkLen])
		}
		if len(q.Edges) > 32 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no trial had more edges than the stack scratch holds")
	}
}

package moqo_test

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"moqo"
)

// tpchRequest builds a fresh request (fresh catalog and query objects) so
// the tests exercise the structural fingerprint, not pointer identity.
func tpchRequest(t *testing.T, mutate func(*moqo.Request)) moqo.Request {
	t.Helper()
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(5, cat)
	if err != nil {
		t.Fatal(err)
	}
	req := moqo.Request{
		Query:      q,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.TupleLoss},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	}
	if mutate != nil {
		mutate(&req)
	}
	return req
}

func key(t *testing.T, req moqo.Request) string {
	t.Helper()
	k, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCacheKeyStable: structurally identical requests, rebuilt from
// scratch, fingerprint identically.
func TestCacheKeyStable(t *testing.T) {
	a := key(t, tpchRequest(t, nil))
	b := key(t, tpchRequest(t, nil))
	if a != b {
		t.Fatalf("identical requests got different keys:\n%s\n%s", a, b)
	}
}

// TestCacheKeyDiscriminates: any input that changes the result must change
// the key — weights and bounds in particular (the cache must never serve a
// plan optimized under different preferences).
func TestCacheKeyDiscriminates(t *testing.T) {
	base := key(t, tpchRequest(t, nil))
	variants := map[string]func(*moqo.Request){
		"weight value": func(r *moqo.Request) {
			r.Weights = map[moqo.Objective]float64{moqo.TotalTime: 2}
		},
		"weight on second objective": func(r *moqo.Request) {
			r.Weights = map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.BufferFootprint: 0.5}
		},
		"bound added": func(r *moqo.Request) {
			r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: 0.05}
		},
		"alpha": func(r *moqo.Request) { r.Alpha = 2 },
		"objective set": func(r *moqo.Request) {
			r.Objectives = []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint}
		},
		"algorithm": func(r *moqo.Request) { r.Algorithm = moqo.AlgoEXA },
		"max dop":   func(r *moqo.Request) { r.MaxDOP = 2 },
		"precisions": func(r *moqo.Request) {
			r.Algorithm = moqo.AlgoRTA
			r.Precisions = map[moqo.Objective]float64{moqo.BufferFootprint: 2}
		},
	}
	for name, mutate := range variants {
		if got := key(t, tpchRequest(t, mutate)); got == base {
			t.Errorf("%s: key unchanged: %s", name, got)
		}
	}

	// Two different bound values must differ from each other, not only
	// from the unbounded base.
	b1 := key(t, tpchRequest(t, func(r *moqo.Request) {
		r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: 0.05}
	}))
	b2 := key(t, tpchRequest(t, func(r *moqo.Request) {
		r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: 0.1}
	}))
	if b1 == b2 {
		t.Errorf("different bound values share a key: %s", b1)
	}
}

// TestCacheKeyCanonicalizes: inputs that do NOT change the result must not
// change the key — Workers (results are worker-invariant), and AlgoAuto
// resolving to the same algorithm an explicit request names.
func TestCacheKeyCanonicalizes(t *testing.T) {
	base := key(t, tpchRequest(t, nil)) // AlgoAuto, unbounded -> RTA
	same := map[string]func(*moqo.Request){
		"explicit RTA":  func(r *moqo.Request) { r.Algorithm = moqo.AlgoRTA },
		"workers":       func(r *moqo.Request) { r.Workers = 8 },
		"explicit dop4": func(r *moqo.Request) { r.MaxDOP = 4 },
	}
	for name, mutate := range same {
		if got := key(t, tpchRequest(t, mutate)); got != base {
			t.Errorf("%s: key changed:\n%s\n%s", name, base, got)
		}
	}
}

// TestCacheKeyRejectsInvalid: everything a request's content can get
// wrong is refused by Resolve — and so, with the same error, by CacheKey,
// Optimize and OptimizeBatch, none of which checks anything itself.
func TestCacheKeyRejectsInvalid(t *testing.T) {
	cases := map[string]func(*moqo.Request){
		"precision on an inactive objective": func(r *moqo.Request) {
			r.Precisions = map[moqo.Objective]float64{moqo.IOLoad: 2}
		},
		"precisions on a non-RTA request": func(r *moqo.Request) {
			r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: 0.1} // auto -> IRA
			r.Precisions = map[moqo.Objective]float64{moqo.TotalTime: 2}
		},
		"RTA with bounds": func(r *moqo.Request) {
			r.Algorithm = moqo.AlgoRTA
			r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: 0.1}
		},
		"alpha below 1":     func(r *moqo.Request) { r.Alpha = 0.5 },
		"max dop too large": func(r *moqo.Request) { r.MaxDOP = 99 },
		"negative max dop":  func(r *moqo.Request) { r.MaxDOP = -1 },
		"negative weight": func(r *moqo.Request) {
			r.Weights = map[moqo.Objective]float64{moqo.TotalTime: -1}
		},
		"negative bound": func(r *moqo.Request) {
			r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: -0.1}
		},
		"precision below 1": func(r *moqo.Request) {
			r.Precisions = map[moqo.Objective]float64{moqo.TotalTime: 0.5}
		},
		"unknown algorithm": func(r *moqo.Request) { r.Algorithm = moqo.Algorithm(42) },
	}
	for name, mutate := range cases {
		req := tpchRequest(t, mutate)
		_, want := req.Resolve()
		if want == nil {
			t.Errorf("%s: Resolve accepted it", name)
			continue
		}
		_, ckErr := req.CacheKey()
		_, fkErr := req.FrontierKey()
		_, optErr := moqo.Optimize(req)
		batchErr := moqo.OptimizeBatch([]moqo.Request{req})[0].Err
		for via, err := range map[string]error{"CacheKey": ckErr, "FrontierKey": fkErr, "Optimize": optErr, "OptimizeBatch": batchErr} {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s returned %v, Resolve %v", name, via, err, want)
			}
		}
	}
}

// frontierKey computes FrontierKey or fails the test.
func frontierKey(t *testing.T, req moqo.Request) string {
	t.Helper()
	k, err := req.FrontierKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// wbSuffix matches a weight/bound suffix: exactly one |w= and one |b=
// component, in that order, containing only float lists.
var wbSuffix = regexp.MustCompile(`^\|w=[^|]*\|b=[^|]*$`)

// randomizedRequest draws a random request over a fixed query shape:
// random objective subset, algorithm, alpha, weights, bounds, DOP,
// precisions. The boundedness pattern follows the algorithm so the
// request stays valid (bounds require EXA or IRA).
func randomizedRequest(t *testing.T, r *rand.Rand) moqo.Request {
	t.Helper()
	all := moqo.AllObjectives()
	n := 2 + r.Intn(3)
	objs := make([]moqo.Objective, 0, n)
	for _, i := range r.Perm(len(all))[:n] {
		objs = append(objs, all[i])
	}
	algs := []moqo.Algorithm{moqo.AlgoEXA, moqo.AlgoRTA, moqo.AlgoIRA}
	alg := algs[r.Intn(len(algs))]
	req := tpchRequest(t, func(q *moqo.Request) {
		q.Objectives = objs
		q.Algorithm = alg
		q.Alpha = 1 + r.Float64()
		q.MaxDOP = 1 + r.Intn(4)
		q.Weights = map[moqo.Objective]float64{objs[0]: r.Float64()}
		if alg != moqo.AlgoRTA {
			q.Bounds = map[moqo.Objective]float64{objs[r.Intn(len(objs))]: 1 + r.Float64()*1e6}
		}
		if alg == moqo.AlgoRTA && r.Intn(2) == 0 {
			q.Precisions = map[moqo.Objective]float64{objs[0]: 1 + r.Float64()}
		}
	})
	return req
}

// reweighted returns a copy of the request with fresh weight values (and
// fresh bound values on the same objectives, when bounded) — the
// perturbation the frontier tier must absorb without a key change.
func reweighted(req moqo.Request, r *rand.Rand) moqo.Request {
	w := make(map[moqo.Objective]float64, len(req.Weights))
	for o := range req.Weights {
		w[o] = r.Float64() * 10
	}
	// Sometimes weight a different active objective entirely.
	if r.Intn(2) == 0 && len(req.Objectives) > 1 {
		w[req.Objectives[1+r.Intn(len(req.Objectives)-1)]] = r.Float64()
	}
	req.Weights = w
	if len(req.Bounds) > 0 {
		b := make(map[moqo.Objective]float64, len(req.Bounds))
		for o := range req.Bounds {
			b[o] = 1 + r.Float64()*1e6
		}
		req.Bounds = b
	}
	return req
}

// TestCacheKeyPrefixProperty pins the FrontierKey/CacheKey contract the
// two-tier cache rests on: for random requests, CacheKey equals
// FrontierKey plus a suffix containing only the |w= and |b= components,
// and two requests differing only in weight/bound values share a
// FrontierKey while (almost surely) differing in CacheKey.
func TestCacheKeyPrefixProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		req := randomizedRequest(t, r)
		ck, fk := key(t, req), frontierKey(t, req)
		if !strings.HasPrefix(ck, fk) {
			t.Fatalf("trial %d: CacheKey is not prefixed by FrontierKey:\n%s\n%s", trial, ck, fk)
		}
		if suffix := ck[len(fk):]; !wbSuffix.MatchString(suffix) {
			t.Fatalf("trial %d: CacheKey suffix %q contains more than |w=/|b=", trial, suffix)
		}

		per := reweighted(req, r)
		if got := frontierKey(t, per); got != fk {
			t.Fatalf("trial %d: weight/bound perturbation changed the FrontierKey:\n%s\n%s", trial, fk, got)
		}
		if key(t, per) == ck {
			// The perturbation may collide only if it drew identical values
			// — with continuous draws that's impossible.
			t.Fatalf("trial %d: perturbed weights/bounds kept the CacheKey", trial)
		}
	}
}

// TestResolvedKeys: a resolved request builds its keys once, as one
// string. Over the random corpus both keys equal the Request-level ones
// byte for byte, a second call allocates nothing, FrontierKey is a slice
// of CacheKey's bytes rather than a copy, and the Workers knob — outside
// both keys — changes neither.
func TestResolvedKeys(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		req := randomizedRequest(t, r)
		res, err := req.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		ck, fk := res.CacheKey(), res.FrontierKey()
		if ck != key(t, req) || fk != frontierKey(t, req) {
			t.Fatalf("trial %d: resolved keys differ from the request's:\n%s\n%s", trial, ck, fk)
		}
		if unsafe.StringData(fk) != unsafe.StringData(ck) {
			t.Fatalf("trial %d: FrontierKey does not share CacheKey's bytes", trial)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = res.CacheKey(), res.FrontierKey() }); n != 0 {
			t.Fatalf("trial %d: a second key read allocates %v objects", trial, n)
		}
		fresh, _ := req.Resolve()
		fresh.SetWorkers(3) // before the keys are built
		if fresh.CacheKey() != ck || fresh.FrontierKey() != fk || fresh.Request().Workers != 3 {
			t.Fatalf("trial %d: SetWorkers changed a key or did not stick", trial)
		}
	}
}

// TestFrontierKeyDiscriminates: everything that determines the frontier
// must change the FrontierKey — and the resolved algorithm is part of
// it, so an AlgoAuto request crossing the bounded/unbounded line (RTA vs
// IRA) changes keys too.
func TestFrontierKeyDiscriminates(t *testing.T) {
	base := frontierKey(t, tpchRequest(t, nil))
	variants := map[string]func(*moqo.Request){
		"alpha":     func(r *moqo.Request) { r.Alpha = 2 },
		"objective": func(r *moqo.Request) { r.Objectives = []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint} },
		"algorithm": func(r *moqo.Request) { r.Algorithm = moqo.AlgoEXA },
		"max dop":   func(r *moqo.Request) { r.MaxDOP = 2 },
		"precisions": func(r *moqo.Request) {
			r.Algorithm = moqo.AlgoRTA
			r.Precisions = map[moqo.Objective]float64{moqo.BufferFootprint: 2}
		},
		"auto crosses RTA/IRA": func(r *moqo.Request) {
			r.Bounds = map[moqo.Objective]float64{moqo.TupleLoss: 0.05}
		},
	}
	for name, mutate := range variants {
		if got := frontierKey(t, tpchRequest(t, mutate)); got == base {
			t.Errorf("%s: FrontierKey unchanged: %s", name, got)
		}
	}
	// Weights alone never change it.
	same := frontierKey(t, tpchRequest(t, func(r *moqo.Request) {
		r.Weights = map[moqo.Objective]float64{moqo.TotalTime: 3, moqo.TupleLoss: 7}
	}))
	if same != base {
		t.Errorf("weights changed the FrontierKey:\n%s\n%s", base, same)
	}
}

// TestCacheKeyCatalogVersion: the same query shape against a catalog with
// different statistics fingerprints differently.
func TestCacheKeyCatalogVersion(t *testing.T) {
	sf1 := key(t, tpchRequest(t, nil))

	cat := moqo.TPCHCatalog(2)
	q, err := moqo.TPCHQuery(5, cat)
	if err != nil {
		t.Fatal(err)
	}
	sf2 := key(t, moqo.Request{
		Query:      q,
		Alpha:      1.5,
		Objectives: []moqo.Objective{moqo.TotalTime, moqo.BufferFootprint, moqo.TupleLoss},
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1},
	})
	if sf1 == sf2 {
		t.Fatal("scale factor 1 and 2 share a cache key")
	}
}

// TestCacheKeyQueryShape: different join graphs fingerprint differently.
func TestCacheKeyQueryShape(t *testing.T) {
	cat := moqo.TPCHCatalog(1)
	keys := map[string]bool{}
	for _, num := range []int{3, 5, 10} {
		q, err := moqo.TPCHQuery(num, cat)
		if err != nil {
			t.Fatal(err)
		}
		k := key(t, moqo.Request{
			Query:      q,
			Objectives: []moqo.Objective{moqo.TotalTime},
		})
		if keys[k] {
			t.Fatalf("TPC-H q%d collides with an earlier query: %s", num, k)
		}
		keys[k] = true
	}
}

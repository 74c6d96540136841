package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"moqo"
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/synthetic"
	wkl "moqo/internal/workload"
)

// syntheticSeed fixes the statistics of the synthetic chain, cycle and star
// queries. The run's seed does not drive them: a frontier's size, and with
// it a dynamic program's cost, swings several-fold with table sizes, and a
// time that moves with the seed could not be held to a tenth.
const syntheticSeed = 7

// iraSeed fixes the weights and bounds of the two IRA instances for the
// same reason: the number of refinement iterations depends on them (1 to 15
// on tpch-q10 across seeds 1 to 3).
const iraSeed = 1

// instance is one optimizer call of the cold workloads.
type instance struct {
	name string
	req  moqo.Request
	// alpha and optimum are set on guarantee instances: the weighted cost
	// of the returned plan may not exceed alpha times optimum, the exact
	// weighted optimum as the pre-refactor reference engine computes it.
	alpha   float64
	optimum float64
}

// cold is the paper's own experiment: the library optimizer on a fixed
// instance list, no cache, no store, no wire. cold_w1 runs each dynamic
// program on one worker, cold_wn on every core.
type cold struct {
	cfg       config
	workers   int
	instances []instance
	digest    string
	ratioMax  float64 // worst weighted cost / optimum seen on a guarantee instance
	last      []core.Stats
}

func newCold(cfg config) *cold {
	c := &cold{cfg: cfg, workers: 1}
	if cfg.workload == "cold_wn" {
		c.workers = runtime.NumCPU()
	}
	return c
}

func (c *cold) clients() int           { return 1 }
func (c *cold) weight() float64        { return 1 }
func (c *cold) keyName(k int32) string { return c.instances[k].name }

// pins are the input digest and the IEEE bits of every guarantee
// instance's exact optimum.
func (c *cold) pins() map[string]string {
	out := map[string]string{"inputs": c.digest}
	for _, in := range c.instances {
		if in.alpha > 0 {
			out["optimum "+in.name] = fmt.Sprintf("%016x", math.Float64bits(in.optimum))
		}
	}
	return out
}

func objectiveIDs(names []string) []moqo.Objective {
	ids, err := parseObjectives(names)
	if err != nil {
		panic(err) // the name lists are constants of this package
	}
	return ids
}

func weightMap(r *rand.Rand, objs []string) map[moqo.Objective]float64 {
	out := map[moqo.Objective]float64{}
	for name, x := range drawWeights(r, objs) {
		o, _ := objective.ParseID(name)
		out[o] = x
	}
	return out
}

func (c *cold) setUp() error {
	r := rand.New(rand.NewSource(c.cfg.seed))
	cat := moqo.TPCHCatalog(1)
	tpch := func(n int) *moqo.Query {
		q, err := moqo.TPCHQuery(n, cat)
		if err != nil {
			panic(err) // n is a constant below
		}
		return q
	}
	synth := func(shape synthetic.Shape, tables int) *moqo.Query {
		_, q := synthetic.MustBuild(synthetic.Spec{Shape: shape, Tables: tables, Seed: syntheticSeed})
		return q
	}
	c.instances = c.instances[:0]
	add := func(q *moqo.Query, alg moqo.Algorithm, alpha float64, objs []string, weights map[moqo.Objective]float64) *instance {
		name := fmt.Sprintf("%s/%v/%dobj", q.Name, alg, len(objs))
		if alg != moqo.AlgoEXA {
			name = fmt.Sprintf("%s/%v%g/%dobj", q.Name, alg, alpha, len(objs))
		}
		c.instances = append(c.instances, instance{name: name, req: moqo.Request{
			Query: q, Algorithm: alg, Alpha: alpha,
			Objectives: objectiveIDs(objs), Weights: weights, Workers: c.workers,
		}})
		return &c.instances[len(c.instances)-1]
	}
	timed := func(q *moqo.Query, alg moqo.Algorithm, alpha float64, objs []string) {
		add(q, alg, alpha, objs, weightMap(r, objs))
	}

	// Guarantee pairs: small enough that the reference engine finds the
	// exact optimum in set-up, run under RTA at three precisions.
	type pair struct {
		q    *moqo.Query
		objs []string
	}
	pairs := []pair{{tpch(2), objs3}, {tpch(3), objs3}, {tpch(10), objs3}, {tpch(21), objs3}, {synth(synthetic.Chain, 8), objs2}}
	for _, p := range pairs {
		weights := weightMap(r, p.objs)
		optimum, err := referenceOptimum(p.q, objectiveIDs(p.objs), weights)
		if err != nil {
			return err
		}
		for _, alpha := range []float64{1.2, 1.5, 2} {
			in := add(p.q, moqo.AlgoRTA, alpha, p.objs, weights)
			in.alpha, in.optimum = alpha, optimum
		}
	}
	if !c.cfg.toy {
		// The timed list proper: 2 to 9 objectives, 4 to 12 tables, exact
		// and approximate, 7 ms to 200 ms each on one worker.
		timed(tpch(2), moqo.AlgoEXA, 0, objs3)
		timed(tpch(10), moqo.AlgoEXA, 0, objs3)
		timed(tpch(7), moqo.AlgoEXA, 0, objs3)
		timed(tpch(5), moqo.AlgoRTA, 1.5, objs3)
		timed(tpch(8), moqo.AlgoRTA, 1.5, objs3)
		timed(tpch(7), moqo.AlgoRTA, 1.5, objs6)
		timed(tpch(9), moqo.AlgoRTA, 1.5, objs6)
		timed(tpch(5), moqo.AlgoRTA, 2, objs6)
		timed(tpch(10), moqo.AlgoRTA, 1.5, objs9)
		timed(tpch(2), moqo.AlgoRTA, 2, objs9)
		timed(tpch(21), moqo.AlgoRTA, 1.5, objs9)
		timed(synth(synthetic.Chain, 12), moqo.AlgoRTA, 1.5, objs3)
		timed(synth(synthetic.Cycle, 10), moqo.AlgoEXA, 0, objs2)
		timed(synth(synthetic.Star, 8), moqo.AlgoRTA, 1.5, objs3)
		for _, n := range []int{10, 21} {
			in, err := iraInstance(tpch(n), c.workers)
			if err != nil {
				return err
			}
			c.instances = append(c.instances, in)
		}
	}
	r.Shuffle(len(c.instances), func(i, j int) { c.instances[i], c.instances[j] = c.instances[j], c.instances[i] })

	parts := make([][]byte, len(c.instances))
	for i, in := range c.instances {
		key, err := in.req.CacheKey()
		if err != nil {
			return err
		}
		parts[i] = []byte(key)
	}
	c.digest = inputDigest(parts...)
	c.last = make([]core.Stats, len(c.instances))

	// One untimed round fills the queries' cardinality memos and grows the
	// heap to its working size.
	c.ratioMax = 0
	for i := range c.instances {
		if _, _, err := c.run(i); err != nil {
			return err
		}
	}
	if c.cfg.corruptSentinel {
		for i := range c.instances {
			if c.instances[i].alpha > 0 {
				c.instances[i].optimum /= 4
				break
			}
		}
	}
	return nil
}

// referenceOptimum is the exact weighted optimum of a request, from
// core.ReferenceEXA — the engine kept from before the flat hot path, which
// shares no archive, kernel or scheduling code with the one under test —
// cross-checked against core.EXA.
func referenceOptimum(q *moqo.Query, objs []moqo.Objective, weights map[moqo.Objective]float64) (float64, error) {
	var w objective.Weights
	for o, x := range weights {
		w[o] = x
	}
	opts := core.Options{Objectives: objective.NewSet(objs...)}
	m := costmodel.NewDefault(q)
	ref, err := core.ReferenceEXA(m, w, objective.NoBounds(), opts)
	if err != nil {
		return 0, err
	}
	exa, err := core.EXA(m, w, objective.NoBounds(), opts)
	if err != nil {
		return 0, err
	}
	opt := w.Cost(ref.Best.Cost)
	if got := w.Cost(exa.Best.Cost); got != opt {
		return 0, fmt.Errorf("%s: core.EXA optimum %v differs from the reference engine's %v", q.Name, got, opt)
	}
	return opt, nil
}

// iraInstance is a bounded-weighted request in the paper's test-case
// recipe: all nine objectives, three bounds relative to the per-objective
// minima.
func iraInstance(q *moqo.Query, workers int) (instance, error) {
	minima, err := core.ObjectiveMinima(costmodel.NewDefault(q), core.Options{Objectives: objective.AllSet()})
	if err != nil {
		return instance{}, err
	}
	tc := wkl.BoundedCase(q, 3, minima, rand.New(rand.NewSource(iraSeed)))
	req := moqo.Request{
		Query: q, Algorithm: moqo.AlgoIRA, Alpha: 1.5, Workers: workers,
		Objectives: tc.Objectives.IDs(),
		Weights:    map[moqo.Objective]float64{},
		Bounds:     map[moqo.Objective]float64{},
	}
	for _, o := range tc.Objectives.IDs() {
		req.Weights[o] = tc.Weights[o]
	}
	for _, o := range tc.Bounds.BoundedObjectives(tc.Objectives) {
		req.Bounds[o] = tc.Bounds[o]
	}
	return instance{name: q.Name + "/ira1.5/9obj", req: req}, nil
}

func (c *cold) tearDown() {}

// run optimizes instance i and checks the answer: a full (not degraded)
// result, a structurally valid plan, and on guarantee instances a weighted
// cost within alpha of the exact optimum.
func (c *cold) run(i int) (time.Duration, *moqo.Result, error) {
	in := &c.instances[i]
	start := time.Now()
	res, err := moqo.Optimize(in.req)
	lat := time.Since(start)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", in.name, err)
	}
	if res.Stats.TimedOut {
		return 0, nil, fmt.Errorf("%s: degraded", in.name)
	}
	if err := res.Plan.Validate(in.req.Query); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", in.name, err)
	}
	if in.alpha > 0 {
		cost := 0.0
		for o, w := range in.req.Weights {
			cost += w * res.Cost(o)
		}
		ratio := cost / in.optimum
		if ratio > c.ratioMax {
			c.ratioMax = ratio
		}
		if ratio > in.alpha*(1+1e-12) {
			return 0, nil, fmt.Errorf("%s: weighted cost is %.6f x the optimum, guarantee is %g", in.name, ratio, in.alpha)
		}
	}
	c.last[i] = res.Stats
	return lat, res, nil
}

// measure runs whole rounds of the list until d has passed, so every
// instance is timed equally often.
func (c *cold) measure(d time.Duration, recs []*recorder) loopResult {
	n := len(c.instances)
	stop := func(i int, elapsed time.Duration) bool { return i%n != 0 || elapsed < d }
	return closedLoop(1, 1024, stop, func(_, i int) (int32, time.Duration, error) {
		var root int32
		if recs != nil {
			root = recs[0].begin("moqo.optimize", -1, int64(i))
		}
		lat, _, err := c.run(i % n)
		if recs != nil {
			recs[0].end(root)
		}
		return int32(i % n), lat, err
	})
}

// bins are the rounds of the list.
func (c *cold) bins(res loopResult) []bin {
	n := len(c.instances)
	var out []bin
	from := time.Duration(0)
	for i := 0; i+n <= len(res.samples); i += n {
		round := res.samples[i : i+n]
		to := round[n-1].end
		out = append(out, bin{samples: round, from: from, to: to})
		from = to
	}
	return out
}

// restart is the library's cold start: build the catalog and a query from
// nothing and return the first plan.
func (c *cold) restart(i int) (time.Duration, error) {
	start := time.Now()
	cat := moqo.TPCHCatalog(1)
	q, err := moqo.TPCHQuery(10, cat)
	if err != nil {
		return 0, err
	}
	res, err := moqo.Optimize(moqo.Request{
		Query: q, Algorithm: moqo.AlgoEXA, Workers: c.workers,
		Objectives: objectiveIDs(objs3),
		Weights:    map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.5},
	})
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	return d, res.Plan.Validate(q)
}

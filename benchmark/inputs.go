package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"moqo"
	"moqo/internal/objective"
	"moqo/internal/server"
)

// Objective sets by width. The three-wide sets avoid tuple_loss, so
// sampling scans stay out of the plan space and a shape's cold cost does
// not depend on which triple it uses by more than the cost formulas do.
var (
	objs2 = []string{"total_time", "buffer_footprint"}
	objs3 = []string{"total_time", "buffer_footprint", "energy"}
	objs6 = []string{"total_time", "startup_time", "io_load", "cpu_load", "buffer_footprint", "energy"}
	objs9 = []string{"total_time", "startup_time", "io_load", "cpu_load", "cores", "disk_footprint", "buffer_footprint", "energy", "tuple_loss"}

	storeTriples = [][]string{
		objs3,
		{"total_time", "io_load", "cores"},
		{"startup_time", "cpu_load", "disk_footprint"},
	}
)

// servingQueries are the TPC-H shapes of the serving workloads: every
// query of four or more tables except q21 (3 to 8 tables, cold RTA cost
// 0.2 ms to 40 ms at three objectives), so the frontier sizes a re-weight
// scans and the plans a hit encodes span the catalog's range.
var servingQueries = []int{2, 3, 5, 7, 8, 9, 10}

// shape is one query shape a serving workload requests: everything of an
// /optimize body except the weights and bounds.
type shape struct {
	Name       string
	TPCH       int
	Algorithm  string
	Alpha      float64
	Objectives []string
	// BoundOn names the objective an EXA shape's moving bound sits on
	// (serve_reweight); BoundMin is that objective's minimum over the
	// shape's exact frontier, found in set-up, so every bound is feasible.
	BoundOn  string
	BoundMin float64
}

func tpchShapes(queries []int, algorithm string, alphas []float64, triples [][]string) []shape {
	var out []shape
	for _, q := range queries {
		for ti, objs := range triples {
			for _, a := range alphas {
				out = append(out, shape{
					Name:       fmt.Sprintf("q%d/%s%g/o%d", q, algorithm, a, ti),
					TPCH:       q,
					Algorithm:  algorithm,
					Alpha:      a,
					Objectives: objs,
				})
			}
		}
	}
	return out
}

// drawWeights draws one weight per objective in [0.05, 1], rounded to six
// decimals so a request body stays short.
func drawWeights(r *rand.Rand, objs []string) map[string]float64 {
	w := make(map[string]float64, len(objs))
	for _, o := range objs {
		w[o] = math.Round((0.05+0.95*r.Float64())*1e6) / 1e6
	}
	return w
}

// wireRequest is the /optimize body of one (shape, weights) pair. u in
// [0,1) places the moving bound of a bounded shape between 1.5x and 2.5x
// the frontier minimum.
func (s shape) wireRequest(weights map[string]float64, u float64) server.OptimizeRequest {
	w := server.OptimizeRequest{
		TPCH:       s.TPCH,
		Algorithm:  s.Algorithm,
		Alpha:      s.Alpha,
		Objectives: s.Objectives,
		Weights:    weights,
	}
	if s.BoundOn != "" {
		w.Bounds = map[string]float64{s.BoundOn: s.BoundMin * (1.5 + u)}
	}
	return w
}

// buildRequest turns a TPC-H wire request into the library request the
// server builds from it, through the same exported functions
// (server.toMoqoRequest itself is unexported): the benchmark's
// expectations and its moqo.build_request_us stage both come from here.
func buildRequest(wire *server.OptimizeRequest, cat *moqo.Catalog) (moqo.Request, error) {
	q, err := moqo.TPCHQuery(wire.TPCH, cat)
	if err != nil {
		return moqo.Request{}, err
	}
	req := moqo.Request{Query: q, Alpha: wire.Alpha, MaxDOP: wire.MaxDOP}
	if wire.Algorithm != "" {
		if req.Algorithm, err = moqo.ParseAlgorithm(wire.Algorithm); err != nil {
			return moqo.Request{}, err
		}
	}
	if req.Objectives, err = parseObjectives(wire.Objectives); err != nil {
		return moqo.Request{}, err
	}
	if req.Weights, err = parseObjectiveMap(wire.Weights); err != nil {
		return moqo.Request{}, err
	}
	if req.Bounds, err = parseObjectiveMap(wire.Bounds); err != nil {
		return moqo.Request{}, err
	}
	return req, nil
}

func parseObjectives(names []string) ([]moqo.Objective, error) {
	out := make([]moqo.Objective, len(names))
	for i, n := range names {
		o, err := objective.ParseID(n)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

func parseObjectiveMap(m map[string]float64) (map[moqo.Objective]float64, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := make(map[moqo.Objective]float64, len(m))
	for name, x := range m {
		o, err := objective.ParseID(name)
		if err != nil {
			return nil, err
		}
		out[o] = x
	}
	return out, nil
}

// expectation is the answer a sentinel request must get, bit for bit: the
// selected plan (compact JSON) and the IEEE bits of each objective's cost.
type expectation struct {
	plan []byte
	cost map[string]uint64
}

// expect computes a request's answer with a cold library run — no server,
// no cache, no store — and checks the plan is structurally valid.
func expect(req moqo.Request) (*expectation, error) {
	res, err := moqo.Optimize(req)
	if err != nil {
		return nil, err
	}
	if res.Stats.TimedOut {
		return nil, fmt.Errorf("expectation for %s degraded", req.Query.Name)
	}
	if err := res.Plan.Validate(req.Query); err != nil {
		return nil, fmt.Errorf("expectation for %s: %w", req.Query.Name, err)
	}
	raw, err := res.PlanJSON()
	if err != nil {
		return nil, err
	}
	var plan bytes.Buffer
	if err := json.Compact(&plan, raw); err != nil {
		return nil, err
	}
	e := &expectation{plan: plan.Bytes(), cost: map[string]uint64{}}
	for _, o := range res.Objectives() {
		e.cost[o.String()] = math.Float64bits(res.Cost(o))
	}
	return e, nil
}

// check compares a served response with the expectation.
func (e *expectation) check(resp *server.OptimizeResponse) error {
	if resp.Stats.TimedOut {
		return fmt.Errorf("degraded answer")
	}
	var plan bytes.Buffer
	if err := json.Compact(&plan, resp.Plan); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	if !bytes.Equal(plan.Bytes(), e.plan) {
		return fmt.Errorf("plan differs from the cold answer")
	}
	if len(resp.Cost) != len(e.cost) {
		return fmt.Errorf("cost has %d objectives, want %d", len(resp.Cost), len(e.cost))
	}
	for name, bits := range e.cost {
		if math.Float64bits(resp.Cost[name]) != bits {
			return fmt.Errorf("cost[%s] differs from the cold answer", name)
		}
	}
	return nil
}

// inputDigest fingerprints generated inputs: request bodies and the cache
// key of each problem, which embeds the catalog fingerprint and the join
// graph.
func inputDigest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

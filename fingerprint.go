package moqo

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/query"
)

// FrontierKey returns the weight- and bound-free prefix of CacheKey: a
// canonical fingerprint of everything that determines the request's
// (α-approximate) Pareto *frontier* — the catalog version, the query join
// graph, the resolved algorithm, alpha, the objectives, per-objective
// precisions, MaxDOP, the sampling decision, and the cost-model
// calibration — but not the user's weights and bounds, which the
// frontier is independent of (the paper's §3 observation that motivates
// frontier reuse: pruning compares cost vectors, never weighted costs).
//
// Two requests that differ only in weights and/or bounds therefore share
// a FrontierKey, which is what the moqod frontier cache keys its
// snapshot tier by: a weight or bound change on a cached frontier is
// answered with a SelectBest scan instead of a new dynamic program.
//
// CacheKey is FrontierKey plus a suffix containing only the "|w=" and
// "|b=" components — structurally: both are slices of the one string
// Resolved builds — so a key for the result and a key for its frontier
// always agree on what a request is.
//
// Note the *resolved* algorithm is part of the prefix: an AlgoAuto
// request resolves to RTA or IRA depending on whether bounds are
// present, so two AlgoAuto requests on opposite sides of that line use
// different frontiers (RTA's is reusable outright, IRA's seeds a
// refinement) and correctly get different FrontierKeys.
func (req Request) FrontierKey() (string, error) {
	r, err := req.Resolve()
	if err != nil {
		return "", err
	}
	return r.FrontierKey(), nil
}

// CacheKey returns a canonical fingerprint of everything that determines
// the request's Result: FrontierKey (catalog version, join graph,
// resolved algorithm, alpha, objectives, precisions, MaxDOP, sampling,
// cost-model calibration) plus the weight/bound suffix. Two requests with
// equal cache keys produce identical plans, frontiers and cost vectors, so
// the key is safe to use as a result-cache key (OptimizeBatch dedupes
// members by it).
//
// Deliberately excluded:
//
//   - Workers: results are identical for every worker count by the
//     engine's level-synchronization design.
//   - the context's deadline: it changes the result only by degrading it,
//     and degraded results must never be cached (the moqod cache skips
//     them), so every cached result is a full result, valid under any.
//   - Shared: a batch's shared memo serves subproblems whose keys encode
//     everything their archives depend on, so attaching one (or which
//     one) changes effort statistics only, never the result — a batch
//     member's answer is interchangeable with a standalone one (the batch
//     differential tests pin this).
//
// The key is an explicit, readable string rather than a hash: distinct
// requests — e.g. differing in a single weight or bound — always map to
// distinct keys, so cache collisions are impossible by construction.
func (req Request) CacheKey() (string, error) {
	r, err := req.Resolve()
	if err != nil {
		return "", err
	}
	return r.CacheKey(), nil
}

// CacheKey is Request.CacheKey of the resolved request, built on first
// use.
func (r *Resolved) CacheKey() string {
	if r.key == "" {
		r.buildKey()
	}
	return r.key
}

// FrontierKey is Request.FrontierKey of the resolved request: the prefix
// substring of CacheKey, so asking for both builds one string.
func (r *Resolved) FrontierKey() string { return r.CacheKey()[:r.fkLen] }

// buildKey builds the CacheKey in one buffer and records where its
// weight/bound suffix starts.
func (r *Resolved) buildKey() {
	req, objs := r.req, r.objs

	// The key is built with strconv appends into one buffer rather than
	// fmt verbs: it is on the serving fast path (the moqod tiers compute
	// keys on every request, including re-weights answered in
	// microseconds), and fmt's boxing used to dominate that path's
	// allocations. The byte stream is unchanged. The buffer holds every
	// TPC-H query's key under all nine objectives (614 bytes for q8), so it
	// is not regrown on the way.
	buf := make([]byte, 0, 1024)
	buf = append(buf, "moqo2|cat="...)
	buf = req.Query.Catalog().AppendFingerprint(buf)

	// Join graph: relations in from-clause order, then join edges sorted,
	// each encoded by the query's own encoders (Query.AppendRelationKey,
	// JoinEdge.AppendKey), which the shared memo's subproblem keys use too.
	buf = append(buf, "|q="...)
	for i := range req.Query.Relations {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = req.Query.AppendRelationKey(buf, i)
	}
	buf = append(buf, "|e="...)
	buf = appendEdges(buf, req.Query.Edges)

	buf = append(buf, "|alg="...)
	buf = append(buf, r.alg.String()...)
	switch r.alg {
	case AlgoRTA, AlgoIRA:
		buf = append(buf, "|alpha="...)
		buf = appendFloat(buf, r.alpha)
	}

	// Objectives in request order: the order is semantically relevant for
	// AlgoSelinger (which optimizes the first listed objective) and cheap
	// to keep canonical for the rest.
	buf = append(buf, "|objs="...)
	for i, o := range req.Objectives {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, o.String()...)
	}
	if r.opts.Precision != (objective.Precision{}) {
		buf = append(buf, "|prec="...)
		buf = appendActive(buf, objs, r.opts.Precision)
	}

	buf = append(buf, "|dop="...)
	buf = strconv.AppendInt(buf, int64(r.opts.MaxDOP), 10)
	buf = append(buf, "|smp="...)
	buf = strconv.AppendBool(buf, *r.opts.AllowSampling)

	if req.CostParams != nil && *req.CostParams != costmodel.Default() {
		buf = fmt.Appendf(buf, "|params=%v", *req.CostParams)
	}
	r.fkLen = len(buf)

	buf = append(buf, "|w="...)
	buf = appendActive(buf, objs, r.w)
	buf = append(buf, "|b="...)
	buf = appendActive(buf, objs, r.b)
	r.key = string(buf)
}

// keySpan is one encoded join edge in appendEdges' scratch: bytes
// [lo, hi).
type keySpan struct{ lo, hi int }

// appendEdges appends the key's join-edge list: each edge encoded once
// into scratch (JoinEdge.AppendKey), the encodings ordered as spans in byte
// order (the order sort.Strings gives them as strings), then copied to buf
// comma-separated. The scratch and the spans are stack arrays large enough
// for the graphs moqod serves, so the edges cost the key no allocation of
// their own; a larger graph spills them to the heap.
func appendEdges(buf []byte, edges []query.JoinEdge) []byte {
	var scratch [1024]byte
	var spanBuf [32]keySpan
	eb, spans := scratch[:0], spanBuf[:0]
	for _, e := range edges {
		start := len(eb)
		eb = e.AppendKey(eb)
		spans = append(spans, keySpan{start, len(eb)})
	}
	slices.SortFunc(spans, func(a, b keySpan) int {
		return bytes.Compare(eb[a.lo:a.hi], eb[b.lo:b.hi])
	})
	for i, sp := range spans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, eb[sp.lo:sp.hi]...)
	}
	return buf
}

// appendActive appends the active objectives' values in objective order,
// comma-separated.
func appendActive(buf []byte, objs objective.Set, vals [objective.NumObjectives]float64) []byte {
	first := true
	for o := objective.ID(0); o < objective.NumObjectives; o++ {
		if !objs.Contains(o) {
			continue
		}
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = appendFloat(buf, vals[o])
	}
	return buf
}

// appendFloat appends a float in shortest round-trip form (handles +Inf,
// the bounds' "unbounded" value).
func appendFloat(b []byte, x float64) []byte {
	if math.IsInf(x, 1) {
		return append(b, "inf"...)
	}
	return strconv.AppendFloat(b, x, 'g', -1, 64)
}

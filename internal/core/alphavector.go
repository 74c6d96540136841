package core

import (
	"context"
	"fmt"

	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
)

// RTAVector runs the representative-tradeoffs algorithm with
// *per-objective* approximation precisions — a beyond-paper extension the
// paper's conclusion invites ("we believe that our findings can be
// exploited for design and analysis of future MOQO algorithms").
//
// Users rarely need uniform accuracy across objectives: a Cloud tenant
// may insist on near-exact monetary cost while tolerating a 2x slack on
// buffer estimates. Pruning coarsely on the tolerant objectives shrinks
// the archives — Lemma 2's bound is a product of per-objective bucket
// counts, each proportional to 1/log(precision) — without weakening the
// guarantee on the strict ones.
//
// Correctness carries over from the uniform RTA verbatim: the PONO holds
// per objective, so the induction of Theorem 3 applied component-wise
// yields a frontier whose vectors approximately dominate every Pareto
// vector with the per-objective plan-level factors, and the argument of
// Corollary 1 bounds the weighted cost by max over the weighted
// objectives of their precisions. The internal per-level precision is the
// component-wise |Q|-th root, exactly as in Algorithm 2.
func RTAVector(m *costmodel.Model, w objective.Weights, prec objective.Precision, opts Options) (Result, error) {
	return RTAVectorContext(context.Background(), m, w, prec, opts)
}

// RTAVectorContext is RTAVector under a context (see EXAContext for the
// cancellation and deadline semantics).
func RTAVectorContext(ctx context.Context, m *costmodel.Model, w objective.Weights, prec objective.Precision, opts Options) (Result, error) {
	if !prec.Valid() {
		return Result{}, fmt.Errorf("core: invalid precision vector (every entry must be >= 1 and finite)")
	}
	if opts.Alpha == 0 {
		opts.Alpha = prec.Max(opts.Objectives)
	}
	opts, start, err := begin(ctx, opts, w, objective.NoBounds())
	if err != nil {
		return Result{}, err
	}
	// prec.Root(0) is +Inf, which NewFlatPrecisionConfig refuses; an empty
	// query is newEngine's error to report.
	n := max(1, m.Query().NumRelations())
	cfg := pareto.NewFlatPrecisionConfig(opts.Objectives, prec.Root(n))
	e := newEngine(ctx, m, opts, cfg, w)
	return e.result(e.run(), w, objective.NoBounds(), prec.Max(opts.Objectives), start)
}

package costmodel

import (
	"testing"

	"moqo/internal/plan"
	"moqo/internal/query"
)

// The benchmarks split one join costing into its parts: what the engine
// pays once per (split, operator, DOP), once per (split, operator) for the
// floor, and per candidate — and the first and last together, as every
// caller outside the candidate loops (and the scoreboard's
// costmodel.joincost_ns probe) pays them.

func benchJoin(b *testing.B, fn func(b *testing.B, m *Model, alg plan.JoinAlg, left, right query.TableSet)) {
	m := NewDefault(testQuery(b))
	left, right := query.Singleton(0).Add(1), query.Singleton(2)
	for _, alg := range storedJoinAlgs {
		m.PrepareJoin(alg, 1, left, right) // fill the cardinality memo
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			fn(b, m, alg, left, right)
		})
	}
}

func BenchmarkJoinPrepare(b *testing.B) {
	benchJoin(b, func(b *testing.B, m *Model, alg plan.JoinAlg, left, right query.TableSet) {
		for b.Loop() {
			sinkJoinTerms = m.PrepareJoin(alg, 2, left, right)
		}
	})
}

func BenchmarkJoinApply(b *testing.B) {
	benchJoin(b, func(b *testing.B, m *Model, alg plan.JoinAlg, left, right query.TableSet) {
		cl, cr := m.ScanCost(0, plan.SeqScan, 0), m.ScanCost(2, plan.SeqScan, 0)
		terms := m.PrepareJoin(alg, 2, left, right)
		for b.Loop() {
			terms.ApplyTo(&sinkVector, &cl, &cr)
		}
	})
}

// BenchmarkMinTerms is what the engine's group gate adds per (split,
// operator): folding the operator's MaxDOP prepared terms into their floor.
func BenchmarkMinTerms(b *testing.B) {
	benchJoin(b, func(b *testing.B, m *Model, alg plan.JoinAlg, left, right query.TableSet) {
		var terms [plan.MaxDOP]JoinTerms
		for dop := 1; dop <= plan.MaxDOP; dop++ {
			terms[dop-1] = m.PrepareJoin(alg, dop, left, right)
		}
		for b.Loop() {
			sinkJoinTerms = MinTerms(terms[:])
		}
	})
}

func BenchmarkJoinCostVec(b *testing.B) {
	benchJoin(b, func(b *testing.B, m *Model, alg plan.JoinAlg, left, right query.TableSet) {
		cl, cr := m.ScanCost(0, plan.SeqScan, 0), m.ScanCost(2, plan.SeqScan, 0)
		for b.Loop() {
			sinkVector = m.JoinCostVec(alg, 2, left, right, &cl, &cr)
		}
	})
}

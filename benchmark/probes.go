package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"moqo"
	"moqo/internal/catalog"
	"moqo/internal/core"
	"moqo/internal/costmodel"
	"moqo/internal/objective"
	"moqo/internal/pareto"
	"moqo/internal/plan"
	"moqo/internal/query"
	"moqo/internal/store"
	"moqo/internal/synthetic"
	"moqo/internal/tenant"
	wkl "moqo/internal/workload"
)

// unitProbes times single calls to the layers' exported functions on one
// fixed fixture (TPC-H q5 under RTA 1.5 on three objectives, a 12-table
// chain, seeded cost streams): the unit costs a layer change moves first.
// They are the same on every workload; what differs per workload is how
// often each layer is called, which the stages and counters report.
func unitProbes(cfg config, m metricSet) error {
	r := rand.New(rand.NewSource(cfg.seed))
	cat := catalog.TPCH(1)
	q := wkl.MustQuery(5, cat)
	model := costmodel.NewDefault(q)
	objs := objective.NewSet(objective.TotalTime, objective.BufferFootprint, objective.Energy)
	weights := objective.Weights{}.With(objective.TotalTime, 1).With(objective.BufferFootprint, 0.3).With(objective.Energy, 0.6)

	// pareto: FlatArchive.Insert over seeded log-uniform cost streams.
	for _, width := range []int{3, 6, 9} {
		set := objective.NewSet(objective.All()[:width]...)
		stream := make([]objective.Vector, 4096)
		for i := range stream {
			for _, o := range set.IDs() {
				stream[i][o] = 1 + 1e4*r.Float64()*r.Float64()
			}
		}
		arch := pareto.NewFlat(pareto.NewFlatConfig(set, 1.5))
		ns := probe(1, func() {
			arch.Reset()
			for i := range stream {
				arch.Insert(stream[i], plan.ScanEntry(plan.SeqScan, 0))
			}
		}) / float64(len(stream))
		m.set(fmt.Sprintf("pareto.insert_ns_w%d", width), ns, "ns")
		if width == 9 {
			inserted, rejected, _ := arch.Stats()
			m.set("pareto.accept_ratio", float64(inserted)/float64(inserted+rejected), "ratio")
			rows := float64(arch.Len())
			m.set("pareto.select_best_ns_per_row", probe(200, func() { arch.SelectBest(objective.UniformWeights(set), objective.NoBounds()) })/rows, "ns")
		}
	}

	// costmodel: one join, one index nested-loop, one relation's scans.
	left, right := query.Singleton(0), query.Singleton(1)
	cl, cr := model.ScanCost(0, plan.SeqScan, 0), model.ScanCost(1, plan.SeqScan, 0)
	m.set("costmodel.joincost_ns", probe(20000, func() { model.JoinCostVec(plan.HashJoin, 2, left, right, &cl, &cr) }), "ns")
	outer, inner := indexedPair(model, q)
	co := model.ScanCost(outer.First(), plan.SeqScan, 0)
	m.set("costmodel.indexnl_ns", probe(20000, func() { model.IndexNLCostVec(outer, &co, inner) }), "ns")
	alts := 0
	scanNs := probe(20000, func() {
		alts = 0
		model.EachScanAlternative(0, true, func(plan.ScanAlg, float64, objective.Vector) bool { alts++; return true })
	})
	m.set("costmodel.scan_alt_ns", scanNs/float64(alts), "ns")

	// query: graph-aware enumeration of a 12-table chain.
	_, chain := synthetic.MustBuild(synthetic.Spec{Shape: synthetic.Chain, Tables: 12, Seed: syntheticSeed})
	var sets []query.TableSet
	chain.EachConnectedSubset(chain.AllTables(), func(s query.TableSet) bool { sets = append(sets, s); return true })
	m.set("query.csg_ns_per_set", probe(200, func() {
		chain.EachConnectedSubset(chain.AllTables(), func(query.TableSet) bool { return true })
	})/float64(len(sets)), "ns")
	splits := 0
	splitNs := probe(20, func() {
		splits = 0
		for _, s := range sets {
			chain.EachConnectedSplit(s, func(_, _ query.TableSet) bool { splits++; return true })
		}
	})
	m.set("query.split_ns_per_split", splitNs/float64(splits), "ns")
	m.set("query.estimate_rows_ns", probe(200, func() {
		for _, s := range sets {
			chain.EstimateRows(s)
		}
	})/float64(len(sets)), "ns")

	// core, plan, moqo: one captured frontier, selected from, materialised,
	// rendered, marshaled and decoded.
	run, err := core.RTA(model, weights, core.Options{Objectives: objs, Alpha: 1.5, CaptureSnapshot: true})
	if err != nil {
		return err
	}
	snap := run.Snapshot
	m.set("core.predict_cost_ns", probe(20000, func() { core.PredictCost(8, 3, "rta") }), "ns")
	m.set("core.select_from_snapshot_us", probe(500, func() {
		_, err = core.SelectFromSnapshot(snap, weights, objective.NoBounds())
	})/1e3, "us")
	if err != nil {
		return err
	}
	m.set("plan.materialize_us", probe(200, func() { snap.Plans() })/1e3, "us")
	m.set("plan.json_us", probe(500, func() { _, err = run.Best.JSON(q, objs) })/1e3, "us")
	if err != nil {
		return err
	}
	_, msnap, err := moqo.OptimizeSnapshot(moqo.Request{
		Query: q, Algorithm: moqo.AlgoRTA, Alpha: 1.5, Objectives: objs.IDs(),
		Weights: map[moqo.Objective]float64{moqo.TotalTime: 1, moqo.Energy: 0.6},
	})
	if err != nil {
		return err
	}
	var blob []byte
	m.set("moqo.snapshot_marshal_us", probe(500, func() { blob, err = msnap.MarshalBinary() })/1e3, "us")
	if err != nil {
		return err
	}

	// catalog.
	m.set("catalog.fingerprint_ns", probe(20000, func() { cat.Fingerprint() }), "ns")
	m.set("catalog.tpch_build_us", probe(200, func() { catalog.TPCH(1) })/1e3, "us")

	// tenant: an uncontended cold-DP slot.
	sched := tenant.NewScheduler(cfg.clients, tenant.Fair)
	m.set("tenant.sched_acquire_ns", probe(20000, func() {
		if sched.Acquire(context.Background(), "analytics", 4, 0) == nil {
			sched.Release("analytics")
		}
	}), "ns")

	// store: open an empty directory, append (fsync on) and read back one
	// snapshot-sized record.
	dir, err := os.MkdirTemp(cfg.outDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var st *store.Store
	opens := make([]float64, 5)
	for i := range opens {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		start := time.Now()
		if st, err = store.Open(store.Options{Dir: dir}); err != nil {
			return err
		}
		opens[i] = ms(time.Since(start))
		if err := st.Put(fmt.Sprintf("probe-%d", i), blob); err != nil {
			return err
		}
	}
	defer st.Close()
	m.set("store.open_ms", median(opens), "ms")
	m.set("store.put_us", probe(20, func() { err = st.Put("probe-put", blob) })/1e3, "us")
	if err != nil {
		return err
	}
	return nil
}

// indexedPair finds an (outer set, inner relation) pair of q that an
// index nested-loop join applies to.
func indexedPair(model *costmodel.Model, q *query.Query) (query.TableSet, int) {
	for o := 0; o < q.NumRelations(); o++ {
		for i := 0; i < q.NumRelations(); i++ {
			if o != i && model.InnerIndexColumn(query.Singleton(o), i) != "" {
				return query.Singleton(o), i
			}
		}
	}
	panic("benchmark: fixture query has no index nested-loop pair")
}

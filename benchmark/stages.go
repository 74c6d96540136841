package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"moqo"
	"moqo/internal/cache"
	"moqo/internal/fault"
	"moqo/internal/server"
	"moqo/internal/store"
	"moqo/internal/tenant"
)

// mirror is the traced run's staged replay of /optimize: benchmark-owned
// instances of the tiers the handler composes, holding the same entries as
// the server under test, driven through exported functions in the
// handler's order. The program is not instrumented in this change, so this
// is how a request's time is attributed from outside; what the stages do
// not add up to is server.unattributed_us.
type mirror struct {
	cat      *moqo.Catalog
	tenants  *tenant.Registry
	plans    *cache.Cache[server.OptimizeResponse]
	frontier *cache.Cache[*moqo.FrontierSnapshot]
	store    *store.Store // nil unless the workload has one
	storeDir string
	breaker  *fault.Breaker
	// snapshotBytes is the marshaled size of every shape's snapshot.
	snapshotBytes int
}

// newMirror builds the tiers at the server's capacities and fills them
// the way the workload's warm-up filled the server's: exact answers for
// every key on serve_hit, one frontier per shape on serve_reweight, one
// stored snapshot per shape on serve_store.
func newMirror(s *serving) (*mirror, error) {
	opts := s.opts
	if opts.CacheCapacity == 0 {
		opts.CacheCapacity = 1024
	}
	if opts.FrontierCacheCapacity == 0 {
		opts.FrontierCacheCapacity = 512
	}
	m := &mirror{
		cat:      s.cat,
		tenants:  newRegistry(),
		plans:    cache.New[server.OptimizeResponse](opts.CacheCapacity, opts.CacheShards),
		frontier: cache.New[*moqo.FrontierSnapshot](opts.FrontierCacheCapacity, opts.CacheShards),
	}
	if s.cfg.workload == "serve_store" {
		dir, err := os.MkdirTemp(s.cfg.outDir, "mirror-store-")
		if err != nil {
			return nil, err
		}
		m.storeDir = dir
		if m.store, err = store.Open(store.Options{Dir: dir}); err != nil {
			return nil, err
		}
		m.breaker = fault.NewBreaker(fault.BreakerConfig{})
	}
	for si, sh := range s.shapes {
		req, err := s.requestFor(si * s.pool)
		if err != nil {
			return nil, err
		}
		_, snap, err := moqo.OptimizeSnapshot(req)
		if err != nil {
			return nil, err
		}
		if snap == nil {
			return nil, fmt.Errorf("shape %s has no reusable frontier", sh.Name)
		}
		data, err := snap.MarshalBinary()
		if err != nil {
			return nil, err
		}
		m.snapshotBytes += len(data)
		switch s.cfg.workload {
		case "serve_hit":
			for v := 0; v < s.pool; v++ {
				if err := m.putAnswer(s, si*s.pool+v, snap); err != nil {
					return nil, err
				}
			}
		case "serve_reweight":
			m.frontier.Put(snap.Key(), snap)
		case "serve_store":
			if err := m.store.Put(snap.Key(), data); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// putAnswer stores key's exact answer in the plan tier.
func (m *mirror) putAnswer(s *serving, key int, snap *moqo.FrontierSnapshot) error {
	req, err := s.requestFor(key)
	if err != nil {
		return err
	}
	res, _, err := moqo.Reoptimize(req, snap)
	if err != nil {
		return err
	}
	plan, err := res.PlanJSON()
	if err != nil {
		return err
	}
	ck, err := req.CacheKey()
	if err != nil {
		return err
	}
	m.plans.Put(ck, renderResponse(res, plan))
	return nil
}

func (m *mirror) close() {
	if m.store != nil {
		_ = m.store.Close()
		_ = os.RemoveAll(m.storeDir)
	}
}

// renderResponse is the wire form of a result minus the frontier, which
// the handler strips unless asked for.
func renderResponse(res *moqo.Result, plan []byte) server.OptimizeResponse {
	cost := make(map[string]float64, len(res.Objectives()))
	for _, o := range res.Objectives() {
		cost[o.String()] = res.Cost(o)
	}
	return server.OptimizeResponse{
		Algorithm: res.Algorithm.String(),
		Plan:      plan,
		Cost:      cost,
		Stats: server.StatsResponse{
			DurationMs:     ms(res.Stats.Duration),
			Considered:     res.Stats.Considered,
			Stored:         res.Stats.Stored,
			MemoryBytes:    res.Stats.MemoryBytes,
			ParetoLast:     res.Stats.ParetoLast,
			EnumSets:       res.Stats.EnumSets,
			EnumSplits:     res.Stats.EnumSplits,
			Iterations:     res.Stats.Iterations,
			ReusedFrontier: res.Stats.ReusedFrontier,
		},
	}
}

// replay walks one request body through the stages, recording a child
// span per stage under a "replay" root that shares the operation id of the
// black-box server.handle span. Stages the answering tier never reaches
// are skipped, exactly as the handler skips them.
func (m *mirror) replay(rec *recorder, op int64, body []byte, tenantName string) error {
	root := rec.begin("replay", -1, op)
	defer rec.end(root)
	stage := func(name string, fn func()) { rec.stage(name, root, op, fn) }

	var (
		wire server.OptimizeRequest
		req  moqo.Request
		key  string
		err  error
	)
	stage("server.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&wire)
	})
	if err != nil {
		return err
	}
	stage("moqo.build_request", func() { req, err = buildRequest(&wire, m.cat) })
	if err != nil {
		return err
	}
	stage("moqo.cachekey", func() { key, err = req.CacheKey() })
	if err != nil {
		return err
	}
	stage("tenant.admit", func() {
		ten, _ := m.tenants.Resolve(tenantName)
		m.tenants.CountRequest(ten)
		m.tenants.Admit(ten, len(req.Query.Relations), len(req.Objectives), wire.Algorithm)
	})
	var (
		resp server.OptimizeResponse
		hit  bool
	)
	stage("cache.get", func() { resp, hit = m.plans.Get(key) })
	if !hit {
		var fkey string
		stage("moqo.frontierkey", func() { fkey, err = req.FrontierKey() })
		if err != nil {
			return err
		}
		var snap *moqo.FrontierSnapshot
		stage("cache.get", func() { snap, hit = m.frontier.Get(fkey) })
		if !hit && m.store != nil {
			var data []byte
			stage("fault.breaker_allow", func() { hit = m.breaker.Allow() })
			stage("store.get", func() { data, hit, err = m.store.GetE(fkey) })
			if err != nil || !hit {
				return fmt.Errorf("replay: store miss for %s: %v", fkey, err)
			}
			m.breaker.Success()
			stage("moqo.snapshot_unmarshal", func() { snap, err = moqo.UnmarshalFrontierSnapshot(data) })
			if err != nil {
				return err
			}
			stage("cache.put", func() { m.frontier.Put(fkey, snap) })
		}
		if snap == nil {
			return fmt.Errorf("replay: no tier holds %s", fkey)
		}
		var res *moqo.Result
		stage("moqo.reoptimize", func() { res, _, err = moqo.ReoptimizeContext(context.Background(), req, snap) })
		if err != nil {
			return err
		}
		var plan []byte
		stage("moqo.planjson", func() { plan, err = res.PlanJSON() })
		if err != nil {
			return err
		}
		resp = renderResponse(res, plan)
		stage("cache.put", func() { m.plans.Put(key, resp) })
	}
	stage("server.encode", func() {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	return err
}

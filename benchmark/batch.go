package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"moqo"
	"moqo/internal/catalog"
	"moqo/internal/core"
	"moqo/internal/server"
	wkl "moqo/internal/workload"
)

// batchFresh posts one collected /optimize/batch per iteration to a server
// built for that iteration, so every batch runs its dynamic programs cold
// *through the server*: batch planner, shared memo, cost-ordered fan-out,
// fair-scheduler slots, snapshot capture and rendering. One client issues
// the batches; the batch itself fans out to every core.
type batchFresh struct {
	cfg config

	body     []byte
	wire     server.BatchRequest
	expected []*expectation // by member
	requests []moqo.Request // the members as library requests, for moqo.batch_ms
	digest   string
	client   *httpClient
	opts     server.Options

	coldStats
	// replayRuns counts the engine runs of the traced replay's library
	// batches, which are the benchmark's own and not the server's.
	replayRuns int64
	// granted is the cold-DP slots the last scraped batch's server granted.
	granted uint64
}

func newBatchFresh(cfg config) *batchFresh { return &batchFresh{cfg: cfg} }

func (b *batchFresh) clients() int    { return 1 }
func (b *batchFresh) weight() float64 { return float64(len(b.expected)) }
func (b *batchFresh) keyName(int32) string {
	return fmt.Sprintf("batch of %d members", len(b.expected))
}

func (b *batchFresh) pins() map[string]string { return map[string]string{"inputs": b.digest} }

// inlineSpecs renders a query and its catalog on the wire.
func inlineSpecs(q *moqo.Query) (*server.CatalogSpec, *server.QuerySpec) {
	cat := q.Catalog()
	cs := &server.CatalogSpec{}
	for t := 0; t < cat.NumTables(); t++ {
		tab := cat.Table(catalog.TableID(t))
		cs.Tables = append(cs.Tables, server.TableSpec{Name: tab.Name, Rows: tab.Rows, Width: tab.Width, PK: tab.PKColumn})
		for _, ix := range cat.Indexes(catalog.TableID(t)) {
			if ix.Column != tab.PKColumn {
				cs.Indexes = append(cs.Indexes, server.IndexSpec{Table: tab.Name, Column: ix.Column, Unique: ix.Unique})
			}
		}
	}
	qs := &server.QuerySpec{Name: q.Name}
	for _, rel := range q.Relations {
		qs.Relations = append(qs.Relations, server.RelationSpec{
			Table: cat.Table(rel.Table).Name, Alias: rel.Alias, FilterSel: rel.FilterSel,
		})
	}
	for _, e := range q.Edges {
		qs.Joins = append(qs.Joins, server.JoinSpec{
			Left: e.Left, Right: e.Right, LeftCol: e.LeftCol, RightCol: e.RightCol, Selectivity: e.Selectivity,
		})
	}
	return cs, qs
}

func (b *batchFresh) setUp() error {
	// The overlap trio of wkl.MixedBatch: a chain and two of its
	// prefixes over one synthetic catalog, exact, two objectives. Its
	// statistics are fixed (see syntheticSeed); the run's seed draws the
	// weights and shuffles the members.
	mixed, err := wkl.MixedBatch(wkl.BatchSpec{Tables: b.cfg.scale(10, 6), Seed: syntheticSeed})
	if err != nil {
		return err
	}
	var trio []*moqo.Query
	for _, m := range mixed {
		if m.Algorithm == "exa" && (m.Kind == "base" || m.Kind == "overlap") {
			trio = append(trio, m.Query)
		}
	}
	if len(trio) != 3 {
		return fmt.Errorf("inputs changed: wkl.MixedBatch yields %d exact base members, want 3", len(trio))
	}

	r := rand.New(rand.NewSource(b.cfg.seed))
	type member struct {
		q       *moqo.Query
		weights map[string]float64
	}
	var members []member
	for _, q := range trio {
		base := member{q, drawWeights(r, objs2)}
		members = append(members, base, base, // the member and its duplicate
			member{q, drawWeights(r, objs2)}, member{q, drawWeights(r, objs2)}) // two re-weights
	}
	r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })

	b.wire = server.BatchRequest{}
	b.expected = b.expected[:0]
	b.requests = b.requests[:0]
	var parts [][]byte
	answers := map[string]*expectation{}
	for _, m := range members {
		cs, qs := inlineSpecs(m.q)
		b.wire.Catalog = cs // one catalog serves all three queries
		b.wire.Members = append(b.wire.Members, server.BatchMemberRequest{
			Query: qs, Algorithm: "exa", Objectives: objs2, Weights: m.weights,
		})
		weights, err := parseObjectiveMap(m.weights)
		if err != nil {
			return err
		}
		req := moqo.Request{Query: m.q, Algorithm: moqo.AlgoEXA, Objectives: objectiveIDs(objs2), Weights: weights}
		key, err := req.CacheKey()
		if err != nil {
			return err
		}
		if answers[key] == nil {
			if answers[key], err = expect(req); err != nil {
				return err
			}
		}
		b.expected = append(b.expected, answers[key])
		b.requests = append(b.requests, req)
		parts = append(parts, []byte(key))
	}
	if b.body, err = json.Marshal(b.wire); err != nil {
		return err
	}
	b.digest = inputDigest(append(parts, b.body)...)
	b.opts = server.Options{Tenants: newRegistry()}
	b.client = newHTTPClient("/optimize/batch", tenantNames[0])
	// One untimed batch warms the process (heap, code paths); the server
	// it warmed is thrown away like every other.
	_, err = b.post(false)
	return err
}

func (b *batchFresh) tearDown() {}

// post runs one batch against a fresh server and checks every member; with
// scrape it also reads the server's own count of cold-DP slots granted.
func (b *batchFresh) post(scrape bool) (time.Duration, error) {
	srv := server.New(b.opts)
	defer srv.Close()
	handler := srv.Handler()
	start := time.Now()
	code := b.client.post(handler, b.body)
	lat := time.Since(start)
	if scrape {
		m, _, err := scrapeMetrics(handler)
		if err != nil {
			return 0, err
		}
		b.granted = 0
		for _, t := range m.Tenants {
			b.granted += t.Granted
		}
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("batch: status %d: %s", code, b.client.sink.body.Bytes())
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(b.client.sink.body.Bytes(), &resp); err != nil {
		return 0, err
	}
	if len(resp.Members) != len(b.expected) {
		return 0, fmt.Errorf("batch: %d member responses, want %d", len(resp.Members), len(b.expected))
	}
	b.coldStats = coldStats{sharedHits: int(resp.Stats.SharedHits)}
	for i, m := range resp.Members {
		if m.Result == nil {
			return 0, fmt.Errorf("batch member %d: %s: %s", i, m.ErrorCode, m.Error)
		}
		if err := b.expected[i].check(m.Result); err != nil {
			return 0, fmt.Errorf("batch member %d: %w", i, err)
		}
		if !m.Result.Cached && !m.Result.Stats.ReusedFrontier {
			b.coldStats.addWire(m.Result.Stats)
		}
	}
	return lat, nil
}

// measure counts one sample per POST.
func (b *batchFresh) measure(d time.Duration, recs []*recorder) loopResult {
	res := closedLoop(1, 1024, forSeconds(d), func(_, i int) (int32, time.Duration, error) {
		var root int32
		if recs != nil {
			root = recs[0].begin("server.handle", -1, int64(i))
		}
		replay := recs != nil && i%4 == 0 // a replay costs as much as a batch: stage one in four
		lat, err := b.post(replay)
		if recs != nil {
			recs[0].end(root)
			if err == nil && replay {
				err = b.replay(recs[0], int64(i))
			}
		}
		return 0, lat, err
	})
	// attempted and failed count members, the unit ops_per_s is in.
	res.attempted *= len(b.expected)
	res.failed *= len(b.expected)
	return res
}

func (b *batchFresh) bins(res loopResult) []bin {
	return timeSlices(res.samples, res.wall, b.cfg.slices)
}

// restart is a batch's whole life: construct, answer, close.
func (b *batchFresh) restart(int) (time.Duration, error) {
	start := time.Now()
	_, err := b.post(false)
	return time.Since(start), err
}

// replay stages one batch from outside: decode, the library's own batch
// optimizer on the same members, plan rendering and encode.
func (b *batchFresh) replay(rec *recorder, op int64) error {
	root := rec.begin("replay", -1, op)
	defer rec.end(root)
	var err error
	rec.stage("server.decode", root, op, func() {
		var wire server.BatchRequest
		err = json.Unmarshal(b.body, &wire)
	})
	if err != nil {
		return err
	}
	for _, req := range b.requests {
		rec.stage("moqo.cachekey", root, op, func() { _, err = req.CacheKey() })
		rec.stage("moqo.frontierkey", root, op, func() { _, err = req.FrontierKey() })
	}
	var items []moqo.BatchItem
	runs := core.EngineRuns()
	rec.stage("moqo.batch", root, op, func() {
		items = moqo.OptimizeBatchContext(context.Background(), b.requests, moqo.BatchOptions{Parallel: runtime.NumCPU()})
	})
	b.replayRuns += core.EngineRuns() - runs
	resp := server.BatchResponse{Members: make([]server.BatchMemberResponse, len(items))}
	for i, it := range items {
		if it.Err != nil {
			return it.Err
		}
		var plan []byte
		rec.stage("moqo.planjson", root, op, func() { plan, err = it.Result.PlanJSON() })
		if err != nil {
			return err
		}
		r := renderResponse(it.Result, plan)
		resp.Members[i] = server.BatchMemberResponse{Member: i, Result: &r}
	}
	rec.stage("server.encode", root, op, func() { _, err = json.MarshalIndent(resp, "", "  ") })
	return err
}

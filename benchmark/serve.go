package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"moqo"
	"moqo/internal/objective"
	"moqo/internal/server"
	"moqo/internal/store"
	"moqo/internal/tenant"
)

// tenantConfig is the registry every served workload runs under: two
// tenants with a table ceiling, a predicted-cost ceiling and a token
// bucket, all generous enough that nothing is ever rejected, so admission
// does its full work on every request and refuses none.
const tenantConfig = `{"tenants": {
  "analytics": {"weight": 4, "max_tables": 16, "max_predicted_cost": 1e15,
                "requests": 100000000, "interval_ms": 1000, "burst": 100000000},
  "adhoc":     {"weight": 1, "max_tables": 16, "max_predicted_cost": 1e15,
                "requests": 100000000, "interval_ms": 1000, "burst": 100000000}}}`

var tenantNames = []string{"analytics", "adhoc"}

func newRegistry() *tenant.Registry {
	cfg, err := tenant.ParseConfig([]byte(tenantConfig))
	if err != nil {
		panic(err) // the literal above is malformed
	}
	return tenant.NewRegistry(cfg)
}

// responseSink is the in-process http.ResponseWriter of one client,
// reused across requests so the generator allocates next to nothing.
type responseSink struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (s *responseSink) Header() http.Header  { return s.header }
func (s *responseSink) WriteHeader(code int) { s.code = code }
func (s *responseSink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.body.Write(p)
}

// requestBody is a request body that reads a byte slice without a
// per-request wrapper allocation.
type requestBody struct{ bytes.Reader }

func (*requestBody) Close() error { return nil }

// httpClient is one closed-loop caller: it enters the server through
// Handler().ServeHTTP with a full JSON body and the tenant header, and
// blocks until the handler returns, as a query engine blocks on its plan.
type httpClient struct {
	tmpl http.Request
	body requestBody
	sink responseSink
}

func newHTTPClient(path, tenantName string) *httpClient {
	req, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		panic(err) // constant method and path
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TenantHeader, tenantName)
	return &httpClient{tmpl: *req, sink: responseSink{header: http.Header{}}}
}

// post sends body and returns the status; the response body stays in
// c.sink.body until the next post.
func (c *httpClient) post(h http.Handler, body []byte) int {
	clear(c.sink.header)
	c.sink.code = 0
	c.sink.body.Reset()
	c.body.Reset(body)
	req := c.tmpl
	req.Body = &c.body
	h.ServeHTTP(&c.sink, &req)
	return c.sink.code
}

// replayEvery: the traced pass replays every n-th request of a client
// through the staged mirror.
const replayEvery = 16

// serving is the three /optimize workloads. They share shapes, server and
// loop and differ in the key sequence and the cache sizes, which decide
// the tier that answers.
type serving struct {
	cfg config

	cat      *moqo.Catalog
	shapes   []shape
	pool     int                  // weight vectors per shape
	bodies   [][]byte             // by key = shape*pool + vector
	expected map[int]*expectation // sentinel keys
	// verifyEvery thins the checks on workloads whose every key is a
	// sentinel: decoding each response would cost the generator more CPU
	// than the server spends serving it.
	verifyEvery int
	digest      string
	// coldStats is the cold work behind the warmed tiers: the effort of
	// the dynamic programs that populated them.
	coldStats

	opts     server.Options
	storeDir string
	srv      *server.Server
	handler  http.Handler
	clients_ []*httpClient

	// Traced runs only: the benchmark-owned tiers of the staged replay,
	// and the server's counters before the loops.
	mirror *mirror
	before server.MetricsResponse
}

func newServing(cfg config) *serving {
	s := &serving{cfg: cfg}
	triple := [][]string{objs3}
	switch cfg.workload {
	case "serve_hit":
		// 7 shapes x 8 weight vectors: fits the 1024-entry plan cache, so
		// after warm-up every request is an exact-tier hit.
		s.shapes = tpchShapes(servingQueries, "rta", []float64{1.5}, triple)
		s.pool, s.verifyEvery = 8, 64
	case "serve_reweight":
		// The same shapes plus two exact ones with a moving bound, weights
		// cycled from a pool far larger than the plan cache: every request
		// misses the exact tier, hits the frontier tier, and evicts.
		s.shapes = tpchShapes(servingQueries, "rta", []float64{1.5}, triple)
		for _, q := range []int{3, 10} {
			s.shapes = append(s.shapes, shape{
				Name: fmt.Sprintf("q%d/exa/bounded", q), TPCH: q, Algorithm: "exa",
				Objectives: objs3, BoundOn: "total_time",
			})
		}
		s.pool, s.verifyEvery = cfg.scale(4096, 256), 1
	case "serve_store":
		// 63 shapes round-robin against memory tiers of 8: every request
		// misses both, reads the store, decodes, and demotes a victim.
		s.shapes = tpchShapes(servingQueries, "rta", []float64{1.5, 1.75, 2}, storeTriples)
		s.pool, s.verifyEvery = 1, 8
		s.opts.CacheCapacity, s.opts.FrontierCacheCapacity = 8, 8
		// One shard makes the tiers strict LRUs of 8; the default 16
		// shards would round each up to one entry per shard and let a
		// few lucky shapes hit.
		s.opts.CacheShards = 1
	}
	if cfg.toy {
		s.verifyEvery = 1 // too few requests to thin the checks
	}
	return s
}

func (s *serving) clients() int           { return s.cfg.clients }
func (s *serving) weight() float64        { return 1 }
func (s *serving) keyName(k int32) string { return s.shapes[k].Name }

func (s *serving) pins() map[string]string { return map[string]string{"inputs": s.digest} }

// keyFor is the key sequence of client c. The keys, ordered so that
// consecutive ones differ in shape, are dealt out to the clients like
// cards, and each client cycles through its own hand. No two clients ever
// ask for the same key, so nothing is coalesced onto a neighbour's
// computation (two clients that once met on a key would leave it together
// and stay in lockstep), and a key comes back only after the client's
// whole hand, by when an undersized tier has forgotten it.
func (s *serving) keyFor(c, i int) int {
	k := c + s.cfg.clients*(i%s.hand(c))
	return (k%len(s.shapes))*s.pool + k/len(s.shapes)
}

// hand is the number of keys dealt to client c.
func (s *serving) hand(c int) int {
	return (len(s.bodies) - c + s.cfg.clients - 1) / s.cfg.clients
}

func (s *serving) setUp() error {
	r := rand.New(rand.NewSource(s.cfg.seed))
	s.cat = moqo.TPCHCatalog(1)

	// Bounded shapes need a feasible bound: the minimum of the bounded
	// objective over the exact frontier.
	for i := range s.shapes {
		sh := &s.shapes[i]
		if sh.BoundOn == "" {
			continue
		}
		wire := shape{TPCH: sh.TPCH, Algorithm: sh.Algorithm, Objectives: sh.Objectives}.wireRequest(drawWeights(r, sh.Objectives), 0)
		req, err := buildRequest(&wire, s.cat)
		if err != nil {
			return err
		}
		res, err := moqo.Optimize(req)
		if err != nil {
			return err
		}
		on, _ := objective.ParseID(sh.BoundOn)
		min := res.Frontier[0].Cost.Get(on)
		for _, p := range res.Frontier {
			if c := p.Cost.Get(on); c < min {
				min = c
			}
		}
		sh.BoundMin = min
	}

	// Request bodies for every (shape, vector) key.
	nKeys := len(s.shapes) * s.pool
	s.bodies = make([][]byte, nKeys)
	wires := make([]server.OptimizeRequest, nKeys)
	for si, sh := range s.shapes {
		for v := 0; v < s.pool; v++ {
			key := si*s.pool + v
			wires[key] = sh.wireRequest(drawWeights(r, sh.Objectives), r.Float64())
			body, err := json.Marshal(wires[key])
			if err != nil {
				return err
			}
			s.bodies[key] = body
		}
	}

	// Sentinels: up to 64 keys whose answers a cold library run fixes.
	sentinels := r.Perm(nKeys)
	if len(sentinels) > 64 {
		sentinels = sentinels[:64]
	}
	s.expected = make(map[int]*expectation, len(sentinels))
	parts := make([][]byte, 0, nKeys+len(sentinels))
	parts = append(parts, s.bodies...)
	for _, key := range sentinels {
		req, err := buildRequest(&wires[key], s.cat)
		if err != nil {
			return err
		}
		e, err := expect(req)
		if err != nil {
			return err
		}
		s.expected[key] = e
		ck, err := req.CacheKey()
		if err != nil {
			return err
		}
		parts = append(parts, []byte(ck))
	}
	s.digest = inputDigest(parts...)
	if s.cfg.corruptSentinel {
		s.expected[sentinels[0]].plan[0] ^= 0xff
	}

	// The system under test: a fresh server, its tiers warmed by one
	// request per key (one per shape where only the frontier must be
	// warm), each a 200.
	s.opts.Tenants = newRegistry()
	if s.cfg.workload == "serve_store" {
		dir, err := os.MkdirTemp(s.cfg.outDir, "store-")
		if err != nil {
			return err
		}
		s.storeDir = dir
		s.opts.StorePath = dir // fsync stays on, moqod's default
	}
	if err := s.open(); err != nil {
		return err
	}
	s.clients_ = make([]*httpClient, s.cfg.clients)
	for c := range s.clients_ {
		s.clients_[c] = newHTTPClient("/optimize", tenantNames[c%len(tenantNames)])
	}
	s.coldStats = coldStats{}
	warm := s.clients_[0]
	for key := range s.bodies {
		if s.cfg.workload == "serve_reweight" && key%s.pool != 0 {
			continue
		}
		if code := warm.post(s.handler, s.bodies[key]); code != http.StatusOK {
			return fmt.Errorf("%s: warm-up key %d: status %d: %s", s.cfg.workload, key, code, warm.sink.body.Bytes())
		}
		if key%s.pool == 0 { // the shape's first request ran its cold dynamic program
			var resp server.OptimizeResponse
			if err := json.Unmarshal(warm.sink.body.Bytes(), &resp); err != nil {
				return err
			}
			s.coldStats.addWire(resp.Stats)
		}
	}
	return nil
}

// requestFor rebuilds the library request behind key's body.
func (s *serving) requestFor(key int) (moqo.Request, error) {
	var wire server.OptimizeRequest
	if err := json.Unmarshal(s.bodies[key], &wire); err != nil {
		return moqo.Request{}, err
	}
	return buildRequest(&wire, s.cat)
}

func (s *serving) open() error {
	srv, err := server.NewE(s.opts)
	if err != nil {
		return err
	}
	s.srv, s.handler = srv, srv.Handler()
	return nil
}

func (s *serving) closeServer() {
	if s.srv != nil {
		_ = s.srv.Close() // the run is over; a failed final sync changes no metric
		s.srv, s.handler = nil, nil
	}
}

func (s *serving) tearDown() {
	s.closeServer()
	if s.mirror != nil {
		s.mirror.close()
		s.mirror = nil
	}
	if s.storeDir != "" {
		_ = os.RemoveAll(s.storeDir)
		s.storeDir = ""
	}
}

// request issues key from client c and checks the answer: always the
// status, and against the cold expectation when the key is a sentinel and
// it is this visit's turn.
func (s *serving) request(c, i, key int) (time.Duration, error) {
	cl := s.clients_[c]
	start := time.Now()
	code := cl.post(s.handler, s.bodies[key])
	lat := time.Since(start)
	if code != http.StatusOK {
		return 0, fmt.Errorf("key %d: status %d: %s", key, code, cl.sink.body.Bytes())
	}
	if e := s.expected[key]; e != nil && s.verifyTurn(c, i) {
		var resp server.OptimizeResponse
		if err := json.Unmarshal(cl.sink.body.Bytes(), &resp); err != nil {
			return 0, fmt.Errorf("key %d: %w", key, err)
		}
		if err := e.check(&resp); err != nil {
			return 0, fmt.Errorf("key %d: %w", key, err)
		}
	}
	return lat, nil
}

// verifyTurn thins the full checks to one visit in verifyEvery of every
// key: within a pass through the client's hand it picks the positions
// congruent to the pass number, so over verifyEvery passes each key is
// checked once and the checks are spread evenly over time.
func (s *serving) verifyTurn(c, i int) bool {
	hand := s.hand(c)
	return (i%hand+i/hand)%s.verifyEvery == 0
}

func (s *serving) measure(d time.Duration, recs []*recorder) loopResult {
	return closedLoop(s.cfg.clients, 1<<18, forSeconds(d), func(c, i int) (int32, time.Duration, error) {
		key := s.keyFor(c, i)
		var rec *recorder
		var root int32
		op := int64(i)*int64(s.cfg.clients) + int64(c)
		if recs != nil {
			rec = recs[c]
			root = rec.begin("server.handle", -1, op)
		}
		lat, err := s.request(c, i, key)
		if rec != nil {
			rec.end(root)
			if err == nil && i%replayEvery == 0 {
				err = s.mirror.replay(rec, op, s.bodies[key], tenantNames[c%len(tenantNames)])
			}
		}
		return int32(key / s.pool), lat, err
	})
}

func (s *serving) bins(res loopResult) []bin {
	return timeSlices(res.samples, res.wall, s.cfg.slices)
}

// restart is one cold-start cycle: construct the server (which replays the
// store where there is one), serve the first request — a store hit on
// serve_store, a cold dynamic program elsewhere — check it, and close.
func (s *serving) restart(i int) (time.Duration, error) {
	s.closeServer()
	if i == 0 && s.storeDir != "" {
		// The measured loop leaves the log with anything from no garbage
		// to as much garbage as live data, depending on when the last
		// background compaction ran, and replay reads all of it. Compact
		// once, so the cycles time the replay of the live records.
		st, err := store.Open(store.Options{Dir: s.storeDir})
		if err != nil {
			return 0, err
		}
		if err := st.Compact(); err != nil {
			return 0, err
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	// Without a store the first answer is a cold dynamic program, whose
	// cost differs a hundredfold between shapes: those cycles all use the
	// first shape. Store hits cost alike, and the cycles walk the shapes.
	key := 0
	if s.storeDir != "" {
		key = (i % len(s.shapes)) * s.pool
	}
	cl := s.clients_[0]
	start := time.Now()
	if err := s.open(); err != nil {
		return 0, err
	}
	code := cl.post(s.handler, s.bodies[key])
	d := time.Since(start)
	defer s.closeServer()
	if code != http.StatusOK {
		return 0, fmt.Errorf("restart cycle %d: status %d: %s", i, code, cl.sink.body.Bytes())
	}
	if e := s.expected[key]; e != nil {
		var resp server.OptimizeResponse
		if err := json.Unmarshal(cl.sink.body.Bytes(), &resp); err != nil {
			return 0, err
		}
		if err := e.check(&resp); err != nil {
			return 0, fmt.Errorf("restart cycle %d: %w", i, err)
		}
	}
	return d, nil
}

// metrics fetches the server's GET /metrics.
func (s *serving) metrics() (server.MetricsResponse, time.Duration, error) {
	return scrapeMetrics(s.handler)
}

// scrapeMetrics serves GET /metrics through a handler and times it.
func scrapeMetrics(h http.Handler) (server.MetricsResponse, time.Duration, error) {
	var m server.MetricsResponse
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, 0, err
	}
	sink := &responseSink{header: http.Header{}}
	start := time.Now()
	h.ServeHTTP(sink, req)
	d := time.Since(start)
	if sink.code != http.StatusOK {
		return m, 0, fmt.Errorf("/metrics: status %d", sink.code)
	}
	return m, d, json.Unmarshal(sink.body.Bytes(), &m)
}

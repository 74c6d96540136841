package moqo_test

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sources is a parsed Go tree: every file by its slash path relative to the
// repository root.
type sources map[string]*ast.File

// archRule is one architectural fence: a property of the whole tree,
// checked on its syntax — call expressions, identifiers and struct tags,
// never text, so neither a comment nor a string nor a line break can satisfy
// or dodge it.
type archRule struct {
	name  string
	check func(src sources) []string
	// violations are trees the rule must fire on: each is proof that the
	// check can fail.
	violations []map[string]string
	// mentions are trees the rule must not fire on: the names it looks for
	// occur only in comments and strings.
	mentions []map[string]string
}

// archRules are the repository's fences, each named as in the design notes
// (ARCHITECTURE.md) that state the invariant.
var archRules = []archRule{
	{
		// /optimize is a batch of one: both endpoints admit a request through
		// one Admit call and serve it under one deadline budget, and the
		// claim rule (a claimer takes the next lane and serves it whole)
		// lives only in the planner package.
		name: "One request lifecycle",
		check: func(src sources) []string {
			var bad []string
			server := src.filter(nonTestIn("internal/server/"))
			bad = append(bad, wantCalls(server, "tenants.Admit", 1, selectorCall("tenants", "Admit"))...)
			bad = append(bad, wantCalls(server, "context.WithDeadline", 1, selectorCall("context", "WithDeadline"))...)
			for path, f := range src.filter(func(p string) bool {
				return !isTest(p) && !strings.HasPrefix(p, "internal/batchplan/")
			}) {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && (id.Name == "queryTurn" || id.Name == "queryLocks") {
						bad = append(bad, fmt.Sprintf("%s: %s: a second batch schedule outside internal/batchplan", path, id.Name))
					}
					return true
				})
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/server/lifecycle.go": `package server
func serve() {
	s.tenants.Admit(ten, 1, 2, "rta")
	context.WithDeadline(ctx, d)
	ctx, cancel := context.WithDeadline(ctx, d)
}`},
			{"internal/server/lifecycle.go": `package server
func serve() {
	// s.tenants.Admit(ten, 1, 2, "rta") in a comment is not a call.
	_ = "s.tenants.Admit(ten)"
	context.WithDeadline(ctx, d)
}`},
			{
				"internal/server/lifecycle.go": `package server
func serve() { s.tenants.Admit(ten, 1, 2, "rta"); context.WithDeadline(ctx, d) }`,
				"batch.go": `package moqo
var queryLocks map[*Query]chan struct{}`,
			},
		},
	},
	{
		// The service resolves a request once, in Server.build, and reads its
		// one key at one site, from the resolved value. It never calls the
		// Request-level FrontierKey (the form that returns an error, because
		// it resolves again), and nothing in it is keyed by CacheKey: it has
		// no exact-result cache. The library resolves in the Request-level
		// wrappers and once per batch member; everything else is a method of
		// Resolved. The enumeration strategy is derived, not requested.
		name: "One resolution",
		check: func(src sources) []string {
			var bad []string
			server := src.filter(nonTestIn("internal/server/"))
			bad = append(bad, wantCalls(server, ".Resolve()", 1, methodCall("Resolve"))...)
			bad = append(bad, wantCalls(server, ".FrontierKey()", 1, methodCall("FrontierKey"))...)
			bad = append(bad, wantCalls(server, ".CacheKey()", 0, methodCall("CacheKey"))...)
			for path, f := range server {
				ast.Inspect(f, func(n ast.Node) bool {
					// key, err := req.FrontierKey(): the Request-level form.
					if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 2 && len(as.Rhs) == 1 {
						if call, ok := as.Rhs[0].(*ast.CallExpr); ok && (methodCall("CacheKey")(call) || methodCall("FrontierKey")(call)) {
							bad = append(bad, fmt.Sprintf("%s: builds a key from a moqo.Request", path))
						}
					}
					return true
				})
			}
			root := src.filter(func(p string) bool { return !isTest(p) && !strings.Contains(p, "/") })
			got := map[string]int{}
			for path, f := range root {
				if n := countCalls(f, methodCall("Resolve")); n > 0 {
					got[path] = n
				}
			}
			want := map[string]int{"batch.go": 1, "fingerprint.go": 2, "moqo.go": 1, "snapshot.go": 2}
			if !reflect.DeepEqual(got, want) {
				bad = append(bad, fmt.Sprintf("Resolve() call sites in the root package: %v, want %v", got, want))
			}
			for path, f := range src {
				ast.Inspect(f, func(n ast.Node) bool {
					if field, ok := n.(*ast.Field); ok && field.Tag != nil && strings.Contains(field.Tag.Value, `json:"enumeration`) {
						bad = append(bad, fmt.Sprintf("%s: an enumeration wire field is back", path))
					}
					return true
				})
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/server/server.go": `package server
func build() {
	m.req, err = req.Resolve()
	fkey := m.req.FrontierKey()
	ckey := m.req.CacheKey()
}`},
			{"internal/server/server.go": `package server
func build() {
	m.req, err = req.Resolve()
	fkey, err := req.FrontierKey()
}`},
			{"moqo.go": `package moqo
func Optimize() { r, err := req.Resolve(); r2, err := req.Resolve() }`},
			{"internal/server/wire.go": `package server
type OptimizeRequest struct {
	Enumeration string ` + "`json:\"enumeration,omitempty\"`" + `
}`},
		},
	},
	{
		// The property harness checks the engine against definitions, so
		// nothing it computes may come from the engine: only its tests
		// import internal/core.
		name: "One oracle",
		check: func(src sources) []string {
			var bad []string
			for path, f := range src.filter(nonTestIn("internal/proptest/")) {
				for _, imp := range f.Imports {
					if imp.Path.Value == `"moqo/internal/core"` {
						bad = append(bad, fmt.Sprintf("%s imports internal/core", path))
					}
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/proptest/oracle.go": `package proptest
import "moqo/internal/core"
var _ = core.EXA`},
		},
	},
	{
		// The engine walks the connected sets, picks a split loop per set and
		// falls back to the prefix chain on a deadline; nothing selects
		// another path. The forced strategies, the Gosper scan and the
		// left-deep ablation were test seams that kept two more alive.
		name: "One enumeration",
		check: func(src sources) []string {
			knob := regexp.MustCompile(`EnumerationStrategy|EnumExhaustive|EnumGraph|EnumAuto|LeftDeepOnly|nextSameCard`)
			var bad []string
			for path, f := range src.filter(func(p string) bool { return !isTest(p) }) {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && knob.MatchString(id.Name) {
						bad = append(bad, fmt.Sprintf("%s: %s: a second enumeration path", path, id.Name))
					}
					return true
				})
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/core/options.go": `package core
type Options struct { LeftDeepOnly bool }`},
			{"internal/core/enumerate.go": `package core
func (e *enumeration) nextSameCard(s uint64) uint64 { return s }`},
		},
	},
	{
		// cmd/experiments is the paper's evaluation and nothing else: what
		// the serving layers guarantee is asserted by their own tests, and
		// how fast they are is the scoreboard's (benchmark/) question.
		name: "The paper's harness",
		check: func(src sources) []string {
			serving := map[string]bool{}
			for _, pkg := range []string{"server", "fault", "tenant", "store", "cache", "batchplan"} {
				serving[`"moqo/internal/`+pkg+`"`] = true
			}
			var bad []string
			for path, f := range src.filter(func(p string) bool {
				return nonTestIn("internal/bench/")(p) || nonTestIn("cmd/experiments/")(p)
			}) {
				for _, imp := range f.Imports {
					if serving[imp.Path.Value] {
						bad = append(bad, fmt.Sprintf("%s imports %s", path, imp.Path.Value))
					}
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/bench/chaos.go": `package bench
import "moqo/internal/server"
var _ = server.NewE`},
			{"cmd/experiments/main.go": `package main
import "moqo/internal/tenant"
var _ = tenant.Percentile`},
		},
	},
	{
		// An engine run takes the archive configuration its caller built
		// (newEngine's cfg) and claims each level's sets from one cursor: no
		// second precision field, no lazy configuration, no deques.
		name: "One engine run",
		check: func(src sources) []string {
			return forbidIdents(src.filter(nonTestIn("internal/core/")),
				regexp.MustCompile(`deque|popFront|popBack|alphaInternal|precInternal|flatConfig`),
				"a second run configuration or scheduler")
		},
		violations: []map[string]string{
			{"internal/core/pool.go": `package core
type deque struct{ sets []uint64 }`},
			{"internal/core/engine.go": `package core
func (e *engine) run() { a := e.alphaInternal; _ = a }`},
		},
		mentions: []map[string]string{
			{"internal/core/pool.go": `package core
// The deques, popFront and popBack are gone; flatConfig too.
var gone = "alphaInternal, precInternal"`},
		},
	},
	{
		// A built query.Query is only read, so nothing takes turns on one: it
		// holds no memo, the library's batch has no deferred pass, and
		// estimates reach the optimizer through costmodel.Model's per-run
		// table (plan rendering calls the pure functions directly).
		name: "Immutable query",
		check: func(src sources) []string {
			var bad []string
			for path, f := range src.filter(func(p string) bool { return p == "internal/query/query.go" }) {
				ast.Inspect(f, func(n ast.Node) bool {
					if _, ok := n.(*ast.MapType); ok {
						bad = append(bad, fmt.Sprintf("%s: a query holds a map again", path))
					}
					return true
				})
			}
			bad = append(bad, forbidIdents(src.filter(func(p string) bool { return p == "internal/query/query.go" }),
				regexp.MustCompile(`invalidate`), "a query invalidates a memo again")...)
			bad = append(bad, forbidIdents(src.filter(func(p string) bool { return p == "batch.go" }),
				regexp.MustCompile(`lateMu|deferred`), "the batch serializes units on a query object again")...)
			for path, f := range src.filter(func(p string) bool {
				return !isTest(p) && !strings.HasPrefix(p, "benchmark/") && !strings.HasPrefix(p, "internal/query/") &&
					!strings.HasPrefix(p, "internal/costmodel/") && !strings.HasPrefix(p, "internal/plan/")
			}) {
				if n := countCalls(f, anyCall("EstimateRows", "EstimateWidth")); n > 0 {
					bad = append(bad, fmt.Sprintf("%s: %d table-set estimates outside costmodel.Model and plan rendering", path, n))
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/query/query.go": `package query
type Query struct{ rows map[TableSet]float64 }`},
			{"internal/query/query.go": `package query
func (q *Query) invalidate() {}`},
			{"batch.go": `package moqo
var lateMu sync.Mutex`},
			{"internal/core/engine.go": `package core
func (e *engine) rows(s query.TableSet) float64 { return e.q.EstimateRows(s) }`},
		},
		mentions: []map[string]string{
			{
				"internal/query/query.go": `package query
// No map[TableSet]float64 memo and nothing to invalidate.
var note = "map[TableSet]float64, invalidate"`,
				"batch.go": `package moqo
// No lateMu, no deferred pass.
var note = "lateMu deferred"`,
				"internal/core/engine.go": `package core
// e.q.EstimateRows(s) is costmodel.Model's to call.
var note = "q.EstimateWidth(s)"`,
			},
		},
	},
	{
		// The builders own every rule of a catalog and a query, and
		// objective.ParseID every objective name: the service and the
		// commands convert their input through the error-returning forms, so
		// no client body reaches a builder's panic, and none keeps a second
		// objective-name parser.
		name: "One owner per request rule",
		check: func(src sources) []string {
			var bad []string
			front := src.filter(func(p string) bool { return nonTestIn("internal/server/")(p) || nonTestIn("cmd/")(p) })
			panicking := anyCall("AddTable", "AddIndex", "AddRelation", "AddJoin", "AddFKJoin", "MustLookup")
			for path, f := range front {
				if n := countCalls(f, panicking); n > 0 {
					bad = append(bad, fmt.Sprintf("%s: %d calls of a panicking builder", path, n))
				}
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "parseObjective" {
						bad = append(bad, fmt.Sprintf("%s: a second objective-name parser", path))
					}
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/server/wire.go": `package server
func buildQuery(spec *QuerySpec, cat *moqo.Catalog) *moqo.Query {
	q := moqo.NewQuery("adhoc", cat)
	q.AddRelation(spec.Relations[0].Table, "a", 1)
	return q
}`},
			{"cmd/moqo/main.go": `package main
func main() { id := cat.MustLookup("orders"); _ = id }`},
			{"cmd/moqod/main.go": `package main
func parseObjective(name string) (moqo.Objective, error) { return objective.ParseID(name) }`},
		},
		mentions: []map[string]string{
			{"internal/server/wire.go": `package server
// buildCatalog calls AddTableE, never cat.AddTable(name, rows, width, pk).
var note = "q.AddJoin(0, 1, a, b, 0.5); cat.MustLookup(t); parseObjective"`},
		},
	},
	{
		// pareto.Archive, the tree-backed archive, is the differential oracle:
		// only the reference engine (and the file that defines it) may name
		// it, and nothing may convert a result back into one.
		name: "One frontier representation",
		check: func(src sources) []string {
			var bad []string
			product := src.filter(func(p string) bool {
				return !isTest(p) && p != "internal/core/reference.go" && p != "internal/pareto/archive.go"
			})
			for path, f := range product {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && isIdent(sel.X, "pareto") && (sel.Sel.Name == "Archive" || sel.Sel.Name == "NewArchive") {
						bad = append(bad, fmt.Sprintf("%s: pareto.%s: the legacy frontier representation in non-test code", path, sel.Sel.Name))
					}
					return true
				})
			}
			return append(bad, forbidIdents(product, regexp.MustCompile(`NewMaterialized|materializeFrontier`),
				"a result converted back into the legacy representation")...)
		},
		violations: []map[string]string{
			{"internal/core/engine.go": `package core
func (e *engine) oracle() *pareto.Archive { return nil }`},
			{"internal/server/tiers.go": `package server
var _ = pareto.NewArchive`},
			{"snapshot.go": `package moqo
func (s *FrontierSnapshot) tree() { core.NewMaterialized(s.core) }`},
		},
		mentions: []map[string]string{
			{"internal/core/frontier.go": `package core
// pareto.Archive is the oracle's; NewMaterialized and materializeFrontier are gone.
var note = "pareto.NewArchive(objs, 1)"`},
		},
	},
	{
		// A run's frontier is extracted once into the closed, densely numbered
		// form a decoded snapshot has, and its trees come from
		// plan.NewDenseMaterializer alone: the map-cached materializer is the
		// oracle of internal/core's tests. Options.CaptureSnapshot is an
		// ignored field the benchmark module still sets, and nothing reads.
		name: "One materializer",
		check: func(src sources) []string {
			var bad []string
			engine := src.filter(func(p string) bool { return nonTestIn("internal/core/")(p) || nonTestIn("internal/plan/")(p) })
			for path, f := range engine {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.MapType:
						if isIdent(n.Key, "planRef") {
							bad = append(bad, fmt.Sprintf("%s: a map-backed materializer cache", path))
						}
					case *ast.SelectorExpr:
						if isIdent(n.X, "plan") && n.Sel.Name == "Memo" {
							bad = append(bad, fmt.Sprintf("%s: plan.Memo, the map-backed memo", path))
						}
					}
					return true
				})
			}
			bad = append(bad, forbidIdents(engine, regexp.MustCompile(`^NewMaterializer$`), "the map-backed materializer")...)
			for path, f := range src.filter(func(p string) bool { return !isTest(p) }) {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "CaptureSnapshot" {
						bad = append(bad, fmt.Sprintf("%s: reads CaptureSnapshot", path))
					}
					return true
				})
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/core/frontier.go": `package core
type treeCache map[planRef]*plan.Node`},
			{"internal/plan/compact.go": `package plan
func NewMaterializer(m DenseMemo) *Materializer { return nil }`},
			{"internal/core/snapshot.go": `package core
func (s *FrontierSnapshot) memo() plan.Memo { return nil }`},
			{"moqo.go": `package moqo
func (r *Resolved) capture() bool { return r.opts.CaptureSnapshot }`},
		},
		mentions: []map[string]string{
			{"internal/core/frontier.go": `package core
// No map[planRef] cache, no NewMaterializer(m), no plan.Memo.
var note = "opts.CaptureSnapshot"
var setByTheBenchmark = Options{CaptureSnapshot: true}`},
		},
	},
	{
		// The context is the only carrier of a deadline, from the wire down to
		// the level loop: neither the engine's Options nor the library's
		// Request has a Timeout beside it, and nothing reads one.
		name: "One deadline",
		check: func(src sources) []string {
			var bad []string
			for path, f := range src.filter(func(p string) bool {
				return nonTestIn("internal/core/")(p) || (!isTest(p) && !strings.Contains(p, "/"))
			}) {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Field:
						for _, name := range n.Names {
							if name.Name == "Timeout" {
								bad = append(bad, fmt.Sprintf("%s: declares a Timeout field beside the context's deadline", path))
							}
						}
					case *ast.SelectorExpr:
						if n.Sel.Name == "Timeout" {
							bad = append(bad, fmt.Sprintf("%s: reads a Timeout beside the context's deadline", path))
						}
					}
					return true
				})
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/core/options.go": `package core
type Options struct { Objectives objective.Set; Timeout time.Duration }`},
			{"moqo.go": `package moqo
func (r *Resolved) options(req Request) core.Options { return core.Options{Objectives: r.objs, Workers: int(req.Timeout)} }`},
			{"internal/core/algorithms.go": `package core
func iraDeadline(opts Options) time.Time { return time.Now().Add(opts.Timeout) }`},
		},
		mentions: []map[string]string{
			{
				"internal/core/options.go": `package core
// Options has no Timeout: the context carries the deadline.
var note = "opts.Timeout"`,
				"moqo.go": `package moqo
// Request.Timeout is gone; cmd/moqod's -max-timeout clamps timeout_ms.
var note = "req.Timeout"`,
			},
		},
	},
	{
		// A scanning insert visits only the ranks the sum index leaves it:
		// FlatArchive.rejector is the one product rejection scan, and from
		// three objectives up it and evict are one loop each, with no
		// width-numbered copy (lastRowLeq3, evict4) beside them. Only
		// insertGeneric, the oracle, walks the whole archive in storage order
		// (anyRowLeqGeneric, evictGeneric): a second caller of either is a
		// storage-order scan growing back.
		name: "One rejection scan",
		check: func(src sources) []string {
			pareto := src.filter(nonTestIn("internal/pareto/"))
			bad := forbidIdents(pareto, regexp.MustCompile(`^(lastRowLeq|anyRowLeq|evict)[0-9]+$`), "a width-numbered scan beside the one loop")
			for _, r := range []struct {
				callee *regexp.Regexp
				method bool
				want   string
			}{
				{regexp.MustCompile(`^(anyRowLeqGeneric|evictGeneric)$`), false, "insertGeneric"},
				{regexp.MustCompile(`^rejector$`), true, "InsertRowNear"},
			} {
				got := callers(pareto, func(call *ast.CallExpr) bool {
					switch fun := call.Fun.(type) {
					case *ast.Ident:
						return !r.method && r.callee.MatchString(fun.Name)
					case *ast.SelectorExpr:
						return r.callee.MatchString(fun.Sel.Name)
					}
					return false
				})
				if !slices.Equal(got, []string{r.want}) {
					bad = append(bad, fmt.Sprintf("%v is called from %v, want %s", r.callee, got, r.want))
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/pareto/scan.go": `package pareto
func (a *FlatArchive) Dominated(t *[stride]float64) bool { return anyRowLeqGeneric(a.costs, a.cfg.ids, t) >= 0 }`},
			{"internal/pareto/scan.go": `package pareto
func (a *FlatArchive) Rejects(t *[stride]float64, tk int) bool { return a.rejector(t, tk) >= 0 }`},
			{"internal/pareto/scan.go": `package pareto
func lastRowLeq3(recs []record, costs []float64, t0, t1, t2 float64) int { return -1 }`},
			{"internal/pareto/scan.go": `package pareto
func (a *FlatArchive) evict4(c *objective.Vector, cs uint64, lo int) int { return lo }`},
		},
		mentions: []map[string]string{
			{"internal/pareto/scan.go": `package pareto
// Only InsertRowNear calls a.rejector(&t, tk); insertGeneric alone calls
// anyRowLeqGeneric(costs, ids, t) and a.evictGeneric(ids, c). lastRowLeq3
// and evict4 are gone.
var note = "func lastRowLeq3(costs, 0, 1, 2, t0, t1, t2); func (a *FlatArchive) evict4()"`},
		},
	},
	{
		// The FIFO arrival gate and the breaker-less store were baselines kept
		// in the product so a benchmark had an arm that loses. A request queues
		// at one site (Server.acquireCold) and a configured store always has
		// its breaker; tests may still spell the names. A string that is one of
		// the flags' names is a flag coming back; prose that mentions one is
		// not.
		name: "No losing arms in the product",
		check: func(src sources) []string {
			product := src.filter(func(p string) bool { return !isTest(p) })
			bad := forbidIdents(product, regexp.MustCompile(`^(FIFOScheduling|NoStoreBreaker|gateRequest)$`), "a baseline knob is back")
			for path, f := range product {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if isIdent(n.X, "tenant") && n.Sel.Name == "FIFO" {
							bad = append(bad, fmt.Sprintf("%s: tenant.FIFO: a baseline knob is back", path))
						}
					case *ast.BasicLit:
						if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
							if flag := strings.TrimLeft(v, "-"); flag == "fifo" || flag == "no-store-breaker" {
								bad = append(bad, fmt.Sprintf("%s: %s: a baseline flag is back", path, n.Value))
							}
						}
					}
					return true
				})
			}
			return bad
		},
		violations: []map[string]string{
			{"cmd/moqod/main.go": `package main
var fifo = flag.Bool("fifo", false, "admit in arrival order")`},
			{"internal/server/server.go": `package server
type Options struct { NoStoreBreaker bool }`},
			{"internal/server/admit.go": `package server
func (s *Server) admit() { s.gateRequest(); _ = tenant.FIFO }`},
			{"cmd/moqod/main.go": `package main
var arms = []string{"-no-store-breaker"}`},
		},
		mentions: []map[string]string{
			{"internal/server/admit.go": `package server
// No FIFOScheduling, no gateRequest, no tenant.FIFO, no -fifo flag.
var note = "the fifo arm and NoStoreBreaker are gone; see no-store-breaker in the notes"`},
		},
	},
	{
		// A plan is rendered where the frontier's per-row memo is filled
		// (core.Frontier.PlanJSON) and nowhere else: moqod, cmd/moqo and
		// OptimizeBatch get plan JSON from Result.PlanJSON, which reads the
		// memo, and benchmark/ keeps plan.Node.JSON as its fresh-render probe.
		// The scoreboard's report is the one indented renderer, and
		// plan.Node.JSON appends bytes: encoding/json's rendering of a
		// Description tree is the oracle of internal/plan's tests. The
		// SelectBest scan asks Bounds.Respects once per frontier row, the IRA
		// stopping rule asks both, and Resolve asks Unbounded on every RTA or
		// defaulted request: none may build the set's ID slice.
		name: "One rendering per frontier row",
		check: func(src sources) []string {
			var bad []string
			outside := src.filter(func(p string) bool {
				return !isTest(p) && !strings.HasPrefix(p, "benchmark/") && !strings.HasPrefix(p, "internal/plan/")
			})
			sites := map[string]int{}
			for path, f := range outside {
				if n := countCalls(f, anyCall("Describe", "JSON")); n > 0 {
					sites[path] = n
				}
			}
			if want := map[string]int{"internal/core/frontier.go": 1}; !reflect.DeepEqual(sites, want) {
				bad = append(bad, fmt.Sprintf("plans are rendered at %v, want only %v", sites, want))
			}
			for path, f := range src.filter(func(p string) bool { return !isTest(p) && !strings.HasPrefix(p, "benchmark/") }) {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "MarshalIndent" {
						bad = append(bad, fmt.Sprintf("%s: a second indented renderer", path))
					}
					return true
				})
			}
			for path, f := range src.filter(nonTestIn("internal/plan/")) {
				if n := countCalls(f, func(call *ast.CallExpr) bool {
					return selectorCall("json", "Marshal")(call) || selectorCall("json", "MarshalIndent")(call)
				}); n > 0 {
					bad = append(bad, fmt.Sprintf("%s: internal/plan renders through encoding/json", path))
				}
			}
			for path, f := range src.filter(func(p string) bool { return p == "internal/objective/objective.go" }) {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || !isIdent(fn.Recv.List[0].Type, "Bounds") ||
						!slices.Contains([]string{"Respects", "RespectsRelaxed", "Unbounded"}, fn.Name.Name) {
						continue
					}
					if n := countCalls(&ast.File{Decls: []ast.Decl{fn}}, methodCall("IDs")); n > 0 {
						bad = append(bad, fmt.Sprintf("%s: Bounds.%s builds the set's ID slice", path, fn.Name.Name))
					}
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/server/wire.go": `package server
func render(n *plan.Node, q *query.Query, objs objective.Set) ([]byte, error) { return n.JSON(q, objs) }`},
			{"cmd/moqo/main.go": `package main
func show(d plan.Description) { out, _ := json.MarshalIndent(d, "", "  "); _ = out }`},
			{"internal/plan/json.go": `package plan
func (n *Node) render(q *query.Query) ([]byte, error) { return json.Marshal(n.Describe(q)) }`},
			{"internal/objective/objective.go": `package objective
type Bounds [9]float64
func (b Bounds) Respects(v Vector, objs Set) bool {
	for _, o := range objs.IDs() {
		if v[o] > b[o] { return false }
	}
	return true
}`},
		},
		mentions: []map[string]string{
			{"internal/server/wire.go": `package server
// Not n.JSON(q, objs), not n.Describe(q), not json.MarshalIndent(d, "", "  ").
var note = "plan.Node.JSON(q, objs)"`},
		},
	},
	{
		// Keeping the single best plan of a table set is one set treatment
		// (worker.keepBest), entered by §5.1's degraded branch and by the
		// keep-best program alike, and the objective minima are Selinger runs:
		// no second copy of the rule, and no engine of the minima's own.
		name: "One keep-best set",
		check: func(src sources) []string {
			core := src.filter(nonTestIn("internal/core/"))
			bad := forbidIdents(core, regexp.MustCompile(`^(degradedSet|bestOnlySet|singleObjectiveMin)$`), "a second keep-best set treatment")
			found := false
			for path, f := range core {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil || fn.Name.Name != "ObjectiveMinimaContext" {
						continue
					}
					found = true
					body := &ast.File{Decls: []ast.Decl{fn}}
					isCall := func(name string) func(*ast.CallExpr) bool {
						return func(call *ast.CallExpr) bool { return isIdent(call.Fun, name) }
					}
					if countCalls(body, isCall("newEngine")) > 0 {
						bad = append(bad, fmt.Sprintf("%s: ObjectiveMinimaContext starts an engine of its own", path))
					}
					if countCalls(body, isCall("SelingerContext")) == 0 {
						bad = append(bad, fmt.Sprintf("%s: ObjectiveMinimaContext takes no minimum from SelingerContext", path))
					}
				}
			}
			if !found {
				bad = append(bad, "internal/core declares no ObjectiveMinimaContext")
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/core/engine.go": `package core
func (w *worker) degradedSet(id int32, s query.TableSet) {}`},
			{"internal/core/algorithms.go": `package core
func ObjectiveMinimaContext(ctx context.Context, m *costmodel.Model, opts Options) (objective.Vector, error) {
	var minima objective.Vector
	for _, o := range opts.Objectives.IDs() {
		e := newEngine(ctx, m, opts, pareto.NewFlatConfig(opts.Objectives, 1), objective.SingleWeight(o))
		minima[o] = e.runScalar().CostRow(0)[o]
	}
	return minima, nil
}`},
			{"internal/core/minima.go": `package core
func singleObjectiveMin(ctx context.Context, m *costmodel.Model, o objective.ID, opts Options) (float64, error) {
	res, err := SelingerContext(ctx, m, o, opts)
	return res.Frontier.CostAt(0)[o], err
}`},
		},
		mentions: []map[string]string{
			{"internal/core/engine.go": `package core
// degradedSet, bestOnlySet and singleObjectiveMin are one keepBest now;
// ObjectiveMinimaContext never calls newEngine(ctx, m, opts, cfg, w).
var note = "degradedSet bestOnlySet singleObjectiveMin newEngine"`},
		},
	},
	{
		// Every run's archives are configured once, from one precision vector:
		// the pruning plan (newPruning) builds the run's one FlatConfig, and
		// the set precision becomes the level precision in one function
		// (levelPrecision, Algorithm 2's root), called by the plan alone. A
		// per-objective RTA is RTA under Options.Precision, not an entry point
		// of its own.
		name: "One pruning plan",
		check: func(src sources) []string {
			core := src.filter(nonTestIn("internal/core/"))
			constructor := regexp.MustCompile(`^NewFlat.*Config$`)
			newConfig := func(call *ast.CallExpr) bool {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				return ok && isIdent(sel.X, "pareto") && constructor.MatchString(sel.Sel.Name)
			}
			bad := wantCalls(core, "pareto.NewFlat*Config", 1, newConfig)
			bad = append(bad, wantCalls(core, ".Root", 1, anyCall("Root"))...)
			for _, site := range []struct {
				what  string
				match func(*ast.CallExpr) bool
				in    string
			}{
				{"pareto.NewFlat*Config", newConfig, "newPruning"},
				{".Root", anyCall("Root"), "levelPrecision"},
				{"levelPrecision", func(call *ast.CallExpr) bool { return isIdent(call.Fun, "levelPrecision") }, "newPruning"},
			} {
				if got := callers(core, site.match); !slices.Equal(got, []string{site.in}) {
					bad = append(bad, fmt.Sprintf("internal/core: %s is called by %v, want by %s alone", site.what, got, site.in))
				}
			}
			nonTest := src.filter(func(path string) bool { return !isTest(path) })
			return append(bad, forbidIdents(nonTest, regexp.MustCompile(`RTAVector`), "a per-objective RTA entry point besides RTA's Options.Precision")...)
		},
		violations: []map[string]string{
			{"internal/core/algorithms.go": `package core
func EXAContext(ctx context.Context, m *costmodel.Model, w objective.Weights, b objective.Bounds, opts Options) (Result, error) {
	e := newEngine(ctx, m, opts, pareto.NewFlatConfig(opts.Objectives, 1), w)
	return e.result(e.run(), w, b, time.Now())
}`},
			{"internal/core/alphavector.go": `package core
func RTAVectorContext(ctx context.Context, m *costmodel.Model, w objective.Weights, prec objective.Precision, opts Options) (Result, error) {
	return RTAContext(ctx, m, w, opts)
}`},
			{"internal/core/sharedmemo.go": `package core
func (e *engine) prepareShared() { _ = e.prune.set.Root(e.q.NumRelations()) }`},
		},
		mentions: []map[string]string{
			{"internal/core/alphavector.go": `package core
// RTAVector and RTAVectorContext are gone: RTA reads Options.Precision, and
// pareto.NewFlatConfig(objs, 1) and prec.Root(n) are newPruning's alone.
var note = "RTAVectorContext(ctx, m, w, prec, opts); pareto.NewFlatPrecisionConfig(objs, prec.Root(n))"`},
		},
	},
	{
		// A join's own cost terms depend only on its operand table sets (the
		// paper's Observation 2), so the engine reads a split's estimates once:
		// edgeSplit and the chain fallback prepare each ordered split
		// (costmodel.PrepareSplit), and every operator's terms at every DOP,
		// index-NL's included, are built from that one Split. A call that
		// prepares a split per operator or per candidate is a second path.
		name: "One split preparation",
		check: func(src sources) []string {
			core := src.filter(nonTestIn("internal/core/"))
			var bad []string
			for path, f := range core {
				if n := countCalls(f, anyCall("PrepareJoin", "PrepareIndexNL", "JoinCost", "JoinCostVec", "IndexNLCost", "IndexNLCostVec")); n > 0 {
					bad = append(bad, fmt.Sprintf("%s: %d join terms not built from a prepared split", path, n))
				}
			}
			if got, want := callers(core, anyCall("PrepareSplit")), []string{"edgeSplit", "forEachCandidateChain"}; !slices.Equal(got, want) {
				bad = append(bad, fmt.Sprintf("internal/core: PrepareSplit is called by %v, want by %v alone", got, want))
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/core/costing.go": `package core
func (w *worker) termsOf(alg plan.JoinAlg, dop int, left, right query.TableSet) costmodel.JoinTerms {
	return w.e.m.PrepareJoin(alg, dop, left, right)
}`},
			{"internal/core/costing.go": `package core
func (w *worker) indexNL(left query.TableSet, rel int) { terms := w.e.m.PrepareIndexNL(left, rel); _ = terms }`},
			{"internal/core/costing.go": `package core
func (w *worker) cost(left, right query.TableSet) objective.Vector {
	return w.e.m.JoinCostVec(plan.HashJoin, 1, left, right, &w.cost, &w.cost)
}`},
			{"internal/core/costing.go": `package core
func (w *worker) pairTerms(left, right query.TableSet) { split := w.e.m.PrepareSplit(left, right); _ = split.Join(plan.HashJoin, 1) }`},
		},
		mentions: []map[string]string{
			{"internal/core/doc.go": `package core
// No m.PrepareJoin(alg, dop, left, right) or PrepareIndexNL per operator:
// terms come from one PrepareSplit.
var note = "e.m.PrepareJoin(alg, dop, left, right); e.m.PrepareIndexNL(left, rel); e.m.PrepareSplit(l, r)"`},
		},
	},
	{
		// An objective set is walked by objective.Set.All, the one masked bit
		// walk, which allocates nothing: the dominance relations and the
		// oracles built on them run once per pair of vectors, and a range over
		// IDs builds a fresh slice per call. IDs stays for callers that keep a
		// slice, and the hand-written bit walks (All's own, and Respects'
		// per-row loops) live in internal/objective alone.
		name: "One set walk",
		check: func(src sources) []string {
			var bad []string
			for path, f := range src.filter(func(p string) bool { return !isTest(p) && !strings.HasPrefix(p, "benchmark/") }) {
				ast.Inspect(f, func(n ast.Node) bool {
					if r, ok := n.(*ast.RangeStmt); ok {
						if call, ok := r.X.(*ast.CallExpr); ok && methodCall("IDs")(call) {
							bad = append(bad, fmt.Sprintf("%s: a range over IDs() builds a slice to walk a set; range over All()", path))
						}
					}
					return true
				})
				if n := countCalls(f, selectorCall("bits", "TrailingZeros16")); n > 0 && !strings.HasPrefix(path, "internal/objective/") {
					bad = append(bad, fmt.Sprintf("%s: %d hand-written set walks outside internal/objective", path, n))
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/pareto/frontier.go": `package pareto
func CoverFactor(candidate, reference []objective.Vector, objs objective.Set) float64 {
	f := 1.0
	for _, o := range objs.IDs() {
		f = math.Max(f, candidate[0][o]/reference[0][o])
	}
	return f
}`},
			{"internal/core/sharedmemo.go": `package core
func (e *engine) prepareShared() {
	for i, o := range e.opts.Objectives.IDs() { _, _ = i, o }
}`},
			{"internal/proptest/cover.go": `package proptest
func coverFactor(approx, exact []objective.Vector, objs objective.Set) float64 {
	f := 1.0
	for s := uint16(objs); s != 0; s &= s - 1 {
		o := bits.TrailingZeros16(s)
		f = max(f, approx[0][o]/exact[0][o])
	}
	return f
}`},
		},
		mentions: []map[string]string{
			{"internal/pareto/frontier.go": `package pareto
// Not "for _, o := range objs.IDs()", not bits.TrailingZeros16(uint16(s)).
var note = "for _, o := range objs.IDs() { o = bits.TrailingZeros16(uint16(s)) }"`},
		},
	},
	{
		// The product builds one way: no non-test file of the root module
		// carries a build constraint, so every test, benchmark and binary
		// builds the code that ships. A committed mutant is an overlay that
		// tools/mutate lays over an unmodified tree, not a tagged file beside
		// a seam. benchmark/ and tools/ are modules of their own.
		name: "One build of the product",
		check: func(src sources) []string {
			var bad []string
			for path, f := range src.filter(func(p string) bool {
				return !isTest(p) && !strings.HasPrefix(p, "benchmark/") && !strings.HasPrefix(p, "tools/")
			}) {
				for _, g := range f.Comments {
					for _, c := range g.List {
						if c.Pos() < f.Package && (constraint.IsGoBuild(c.Text) || constraint.IsPlusBuild(c.Text)) {
							bad = append(bad, fmt.Sprintf("%s: %s: a second build of the product", path, c.Text))
						}
					}
				}
			}
			return bad
		},
		violations: []map[string]string{
			{"internal/core/mutant_rtalevel.go": `//go:build moqo_mutant_rtalevel

package core

func levelPrecision(set objective.Precision, _ int) objective.Precision { return set }`},
		},
		mentions: []map[string]string{
			{"internal/core/engine.go": `package core

// A mutant is an overlay, not a file that begins
//
//	//go:build moqo_mutant_rtalevel
var note = "//go:build moqo_mutant_rtalevel"`},
		},
	},
}

// callers returns, sorted, the names of the functions and methods in src
// whose bodies hold a call that matches.
func callers(src sources, match func(*ast.CallExpr) bool) []string {
	var names []string
	for _, f := range src {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && countCalls(&ast.File{Decls: []ast.Decl{fn}}, match) > 0 && !slices.Contains(names, fn.Name.Name) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// isIdent reports whether x is the identifier name.
func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

// TestArchitecture checks every fence on the repository's own tree, and
// that each fires on every violating tree in its table.
func TestArchitecture(t *testing.T) {
	repo := parseTree(t, ".")
	for _, rule := range archRules {
		t.Run(rule.name, func(t *testing.T) {
			for _, problem := range rule.check(repo) {
				t.Error(problem)
			}
			// The snippets replace their namesakes in the real tree, so a rule
			// that counts call sites sees the rest of the repository as it is.
			for i, files := range rule.violations {
				if len(rule.check(withFiles(t, repo, files))) == 0 {
					t.Errorf("violation %d does not fire: %v", i, files)
				}
			}
			for i, files := range rule.mentions {
				if problems := rule.check(withFiles(t, repo, files)); len(problems) > 0 {
					t.Errorf("mention %d fires: %v", i, problems)
				}
			}
		})
	}
}

// withFiles parses files and lays them over the repository's tree, in place
// of their namesakes.
func withFiles(t *testing.T, repo sources, files map[string]string) sources {
	t.Helper()
	src := sources{}
	fset := token.NewFileSet()
	for path, text := range files {
		f, err := parser.ParseFile(fset, path, text, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		src[path] = f
	}
	for path, f := range repo {
		if _, ok := src[path]; !ok {
			src[path] = f
		}
	}
	return src
}

// parseTree parses every Go file under root, skipping hidden directories
// and testdata.
func parseTree(t *testing.T, root string) sources {
	t.Helper()
	src := sources{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		src[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// filter returns the files whose paths keep accepts.
func (src sources) filter(keep func(path string) bool) sources {
	out := sources{}
	for path, f := range src {
		if keep(path) {
			out[path] = f
		}
	}
	return out
}

func isTest(path string) bool { return strings.HasSuffix(path, "_test.go") }

// nonTestIn accepts the non-test files under dir.
func nonTestIn(dir string) func(string) bool {
	return func(path string) bool { return strings.HasPrefix(path, dir) && !isTest(path) }
}

// methodCall matches a call of a method or function named name with no
// arguments, through any receiver: x.name().
func methodCall(name string) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == name && len(call.Args) == 0
	}
}

// selectorCall matches a call of name on an operand spelled x or ….x:
// context.WithDeadline(…), s.tenants.Admit(…).
func selectorCall(x, name string) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		switch operand := sel.X.(type) {
		case *ast.Ident:
			return operand.Name == x
		case *ast.SelectorExpr:
			return operand.Sel.Name == x
		}
		return false
	}
}

// anyCall matches a call, with any arguments, of a method or package
// function with one of the names: x.name(…).
func anyCall(names ...string) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && slices.Contains(names, sel.Sel.Name)
	}
}

// forbidIdents reports every identifier in src whose name matches re.
func forbidIdents(src sources, re *regexp.Regexp, what string) []string {
	var bad []string
	for path, f := range src {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && re.MatchString(id.Name) {
				bad = append(bad, fmt.Sprintf("%s: %s: %s", path, id.Name, what))
			}
			return true
		})
	}
	return bad
}

// countCalls counts the call expressions in f that match.
func countCalls(f *ast.File, match func(*ast.CallExpr) bool) int {
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok && match(call) {
			n++
		}
		return true
	})
	return n
}

// wantCalls reports unless the files hold exactly want matching calls,
// naming the files that hold them.
func wantCalls(src sources, what string, want int, match func(*ast.CallExpr) bool) []string {
	total := 0
	var sites []string
	for path, f := range src {
		if n := countCalls(f, match); n > 0 {
			total += n
			sites = append(sites, fmt.Sprintf("%s:%d", path, n))
		}
	}
	if total == want {
		return nil
	}
	sort.Strings(sites)
	return []string{fmt.Sprintf("%s occurs %d times (%s), want %d", what, total, strings.Join(sites, " "), want)}
}

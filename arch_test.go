package moqo_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
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
}

// archRules are the repository's fences, each named as in the design notes
// (ARCHITECTURE.md) that state the invariant.
var archRules = []archRule{
	{
		// /optimize is a batch of one: both endpoints admit a request through
		// one Admit call and serve it under one deadline budget, and the
		// claim loop's turn-taking lives only in the planner package.
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
			for i, files := range rule.violations {
				src := sources{}
				fset := token.NewFileSet()
				for path, text := range files {
					f, err := parser.ParseFile(fset, path, text, 0)
					if err != nil {
						t.Fatalf("violation %d: %v", i, err)
					}
					src[path] = f
				}
				// The violating files replace their namesakes in the real
				// tree, so a rule that counts call sites sees the rest of the
				// repository as it is.
				for path, f := range repo {
					if _, ok := src[path]; !ok {
						src[path] = f
					}
				}
				if len(rule.check(src)) == 0 {
					t.Errorf("violation %d does not fire: %v", i, files)
				}
			}
		})
	}
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
		f, err := parser.ParseFile(fset, path, nil, 0)
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

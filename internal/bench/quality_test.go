package bench

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFrontierQuality(t *testing.T) {
	cfg := quickConfig()
	cfg.Queries = []int{1, 12, 3}
	cfg.Alphas = []float64{1.25, 2}
	cfg.Timeout = 5 * time.Second
	rows, err := FrontierQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no quality rows (every exact run timed out?)")
	}
	byQuery := map[int]int{}
	for _, r := range rows {
		byQuery[r.QueryNum]++
		if !r.GuaranteeHolds {
			t.Errorf("q%d alpha=%v: cover factor %v exceeds guarantee",
				r.QueryNum, r.Alpha, r.CoverFactor)
		}
		if r.CoverFactor < 1 {
			t.Errorf("q%d: cover factor %v below 1", r.QueryNum, r.CoverFactor)
		}
		if r.ApproxSize > r.ExactSize {
			t.Errorf("q%d alpha=%v: approximate frontier (%d) larger than exact (%d)",
				r.QueryNum, r.Alpha, r.ApproxSize, r.ExactSize)
		}
		if r.ExactSize < 1 || r.ApproxSize < 1 {
			t.Errorf("q%d: empty frontier", r.QueryNum)
		}
	}
	// Two precisions per non-timed-out query.
	for qn, n := range byQuery {
		if n != 2 {
			t.Errorf("q%d has %d rows, want 2", qn, n)
		}
	}
}

func TestRenderQuality(t *testing.T) {
	rows := []QualityRow{
		{QueryNum: 3, Alpha: 1.5, ExactSize: 10, ApproxSize: 4, CoverFactor: 1.1, GuaranteeHolds: true},
		{QueryNum: 5, Alpha: 2, ExactSize: 20, ApproxSize: 6, CoverFactor: 3, GuaranteeHolds: false},
	}
	out := RenderQuality(rows)
	if !strings.Contains(out, "OK") || !strings.Contains(out, "VIOLATED") {
		t.Errorf("render missing statuses:\n%s", out)
	}
	if !strings.Contains(out, "q3") || !strings.Contains(out, "q5") {
		t.Errorf("render missing queries:\n%s", out)
	}
}

// TestQualityMatchesCommitted re-derives every row of the committed quality
// figure (testdata/quality.txt, the output of go run ./cmd/experiments -fig
// quality at the default configuration) and requires the table byte for
// byte: a change that moves an RTA or EXA frontier of any of its queries at
// precision 1.15, 1.5 or 2 shows here. The queries are the file's own, in
// its order — 21 of them, 63 rows; q8 is not among them, because its exact
// run takes longer than the figure's deadline and the figure skips it. The
// run has no deadline, so a slow machine cannot skip a query either.
func TestQualityMatchesCommitted(t *testing.T) {
	file, err := os.ReadFile("testdata/quality.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(file), "\n"), "\n")
	header := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "query ") })
	if header < 0 {
		t.Fatal("testdata/quality.txt has no table header")
	}
	want := lines[header:]
	cfg := DefaultConfig()
	cfg.Timeout = 0
	for _, line := range want[1:] {
		var qn int
		if _, err := fmt.Sscanf(line, "q%d", &qn); err != nil {
			t.Fatalf("testdata/quality.txt: row %q: %v", line, err)
		}
		if len(cfg.Queries) == 0 || cfg.Queries[len(cfg.Queries)-1] != qn {
			cfg.Queries = append(cfg.Queries, qn)
		}
	}
	if len(cfg.Queries) != 21 || len(want) != 1+21*len(cfg.Alphas) || slices.Contains(cfg.Queries, 8) {
		t.Fatalf("testdata/quality.txt: %d rows over queries %v, want 63 rows over 21 queries, q8 not among them", len(want)-1, cfg.Queries)
	}
	rows, err := FrontierQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(RenderQuality(rows), "\n"), "\n")
	if !slices.Equal(got, want) {
		t.Errorf("quality rows:\n%s\nwant (testdata/quality.txt):\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestQualityFileClaims asserts the paper's claims as properties of the
// committed quality figure (testdata/quality.txt), row by row: RTA's cover
// factor is at least 1 and at most α (Theorem 3) and marked OK, and RTA
// keeps no more plans than the exact frontier has. It does not claim that
// RTA keeps fewer plans as α grows: the file's q2 keeps 7 at α 1.5 and 8 at
// α 2 (a coarser grid may keep another representative).
func TestQualityFileClaims(t *testing.T) {
	file, err := os.ReadFile("testdata/quality.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	inTable := false
	for _, line := range strings.Split(strings.TrimSuffix(string(file), "\n"), "\n") {
		if !inTable {
			inTable = strings.HasPrefix(line, "query ")
			continue
		}
		var qn, exact, approx int
		var alpha, cover float64
		var status string
		if _, err := fmt.Sscanf(line, "q%d %g %d %d %g %s", &qn, &alpha, &exact, &approx, &cover, &status); err != nil {
			t.Fatalf("testdata/quality.txt: row %q: %v", line, err)
		}
		rows++
		if cover < 1 || cover > alpha || status != "OK" {
			t.Errorf("q%d α %g: cover factor %v (%s), want within [1, α]", qn, alpha, cover, status)
		}
		if approx < 1 || approx > exact {
			t.Errorf("q%d α %g: RTA keeps %d plans, the exact frontier has %d", qn, alpha, approx, exact)
		}
	}
	if rows == 0 {
		t.Fatal("testdata/quality.txt has no rows")
	}
}

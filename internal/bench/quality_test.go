package bench

import (
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

// TestQualityMatchesCommitted re-derives three queries' rows of the committed
// quality figure (testdata/quality.txt, the output of
// go run ./cmd/experiments -fig quality at the default configuration) and
// requires them byte for byte: a change that moves an RTA or EXA frontier of
// q3, q12 or q13 at precision 1.15, 1.5 or 2 shows here. The run has no
// deadline, so a slow machine cannot skip a query.
func TestQualityMatchesCommitted(t *testing.T) {
	file, err := os.ReadFile("testdata/quality.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Queries = []int{12, 13, 3}
	cfg.Timeout = 0
	rows, err := FrontierQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(file), "\n") {
		if strings.HasPrefix(line, "q3 ") || strings.HasPrefix(line, "q12 ") || strings.HasPrefix(line, "q13 ") {
			want = append(want, line)
		}
	}
	got := strings.Split(strings.TrimSuffix(RenderQuality(rows), "\n"), "\n")[1:]
	if len(want) != 9 || !slices.Equal(got, want) {
		t.Errorf("quality rows of q12, q13 and q3:\n%s\nwant (testdata/quality.txt):\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

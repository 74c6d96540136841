package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"moqo/internal/server"
)

// envelope is the schema of every BENCH_<arm>.json file: the experiment's
// name, the host's CPU count, the measured points and — for arms that
// have headline numbers — a summary.
type envelope struct {
	Benchmark string `json:"benchmark"`
	NumCPU    int    `json:"num_cpu"`
	Points    any    `json:"points"`
	Summary   any    `json:"summary,omitempty"`
}

// benchJSON encodes an arm's measurements as its BENCH_<arm>.json file.
func benchJSON(arm, benchmark string, points, summary any) (File, error) {
	raw, err := json.MarshalIndent(envelope{benchmark, runtime.NumCPU(), points, summary}, "", "  ")
	return File{Name: "BENCH_" + arm + ".json", Data: raw}, err
}

// postTimed POSTs one /optimize body to an in-process service (under the
// given tenant, if any), decodes the JSON response into out, and returns
// the client-side latency in milliseconds. Any status but 200 is an error.
func postTimed(ts *httptest.Server, tenant, body string, out any) (ms float64, err error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/optimize", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", res.StatusCode)
	}
	err = json.NewDecoder(res.Body).Decode(out)
	return float64(time.Since(start)) / float64(time.Millisecond), err
}

// p50p99 sorts a latency sample in place and reads its median and tail by
// the service's own percentile definition, so these files and /metrics
// agree on what a percentile means.
func p50p99(ms []float64) (p50, p99 float64) {
	sort.Float64s(ms)
	return server.Percentile(ms, 0.50), server.Percentile(ms, 0.99)
}

// flooredRatio is num/den with den floored at 10µs: below that a latency
// baseline is timer noise and the ratio would amplify it.
func flooredRatio(num, den float64) float64 {
	return num / max(den, 0.01)
}

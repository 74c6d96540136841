package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"moqo/internal/server"
)

// Example demonstrates a cache-warm/hit round trip against the moqod
// service: the first request runs the optimizer engine, the second —
// identical — request is answered from its cached Pareto frontier with the
// same plan and costs.
func Example() {
	svc := httptest.NewServer(server.New(server.Options{}).Handler())
	defer svc.Close()

	body := `{
		"tpch": 3,
		"alpha": 1.5,
		"objectives": ["total_time", "energy"],
		"weights": {"total_time": 1, "energy": 0.2}
	}`
	ask := func() server.OptimizeResponse {
		res, err := http.Post(svc.URL+"/optimize", "application/json", bytes.NewBufferString(body))
		if err != nil {
			panic(err)
		}
		defer res.Body.Close()
		var out server.OptimizeResponse
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			panic(err)
		}
		return out
	}

	warm := ask() // computes: the cache is cold
	hit := ask()  // identical request: served from the cached frontier

	fmt.Println("first cached: ", warm.Cached)
	fmt.Println("second cached:", hit.Cached)
	fmt.Println("same plan:    ", bytes.Equal(warm.Plan, hit.Plan))
	fmt.Println("same cost:    ", warm.Cost["total_time"] == hit.Cost["total_time"])
	// Output:
	// first cached:  false
	// second cached: true
	// same plan:     true
	// same cost:     true
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"moqo/internal/core"
	"moqo/internal/server"
)

// workloadNames lists the workloads in the order `run` executes them.
var workloadNames = []string{"cold_w1", "cold_wn", "serve_hit", "serve_reweight", "serve_store", "batch_fresh"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	clients int // closed-loop callers of the serving workloads: nproc
	slices  int // time slices ops_per_s takes its median over
	// setupReps is how often set-up runs at least; setup_s is the median,
	// so one slow page-cache miss does not read as a set-up regression.
	setupReps     int
	setupBudget   time.Duration
	restartCycles int
	restartBudget time.Duration
	// toy shrinks inputs for the smoke test; corruptSentinel falsifies an
	// expectation so the test can see the checks fail.
	toy             bool
	corruptSentinel bool
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 10, outDir: filepath.Join("benchmark", "out"),
		clients: runtime.NumCPU(), slices: 20, setupReps: 3, setupBudget: 2 * time.Second, restartCycles: 50, restartBudget: 1500 * time.Millisecond,
	}
}

// scale picks the full-size or the toy value of an input dimension.
func (c config) scale(full, toy int) int {
	if c.toy {
		return toy
	}
	return full
}

// workload is what the runner needs of each of the six.
type workload interface {
	// setUp builds the inputs from the seed, computes the expected
	// answers, and brings the system under test to its measured state.
	// tearDown releases it; setUp may then run again.
	setUp() error
	tearDown()
	// measure runs the closed loop for about d; with recorders (one per
	// client) it also records spans.
	measure(d time.Duration, recs []*recorder) loopResult
	clients() int
	// bins splits a loop's samples into its units of repetition — time
	// slices, or rounds of the cold list — whose medians the reported
	// rates and the in-run spreads are taken over.
	bins(res loopResult) []bin
	// restart times one cold start of the system under test up to its
	// first checked answer.
	restart(i int) (time.Duration, error)
	// weight is the operations one sample stands for (the members of a
	// batch; 1 elsewhere), and keyName names a sample's instance key.
	weight() float64
	keyName(key int32) string
	// beginTrace prepares a traced run after set-up; layers turns what
	// the traced run observed into this workload's per-layer metrics.
	beginTrace() error
	layers(set func(name string, v float64), tr tracedRun) error
	// pins fingerprint what set-up generated, for the committed
	// expectations to hold against.
	pins() map[string]string
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "cold_w1", "cold_wn":
		return newCold(cfg), nil
	case "serve_hit", "serve_reweight", "serve_store":
		return newServing(cfg), nil
	case "batch_fresh":
		return newBatchFresh(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

// coldStats sums the effort counters of cold dynamic programs. For a given
// seed they repeat exactly, so a later change may rest a claim on one —
// as a count.
type coldStats struct {
	considered, stored, enumSets, enumSplits, iterations, sharedHits int
	memory                                                           int64
}

func (c *coldStats) addWire(st server.StatsResponse) {
	c.considered += st.Considered
	c.stored += st.Stored
	c.enumSets += st.EnumSets
	c.enumSplits += st.EnumSplits
	c.iterations += st.Iterations
	c.memory += st.MemoryBytes
}

func (c *coldStats) addCore(st core.Stats) {
	c.considered += st.Considered
	c.stored += st.Stored
	c.enumSets += st.EnumSets
	c.enumSplits += st.EnumSplits
	c.iterations += st.Iterations
	c.sharedHits += st.SharedMemoHits
	c.memory += st.MemoryBytes
}

// result is everything one invocation reports: the line the driver reads
// (Correct, Attempted, Failed, Metrics) plus what a reader of
// out/<workload>-*.json wants beside it.
type result struct {
	resultLine

	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Env      environment        `json:"env"`
	Digest   string             `json:"input_digest"`
	Phases   map[string]phase   `json:"phases"`
	Samples  map[string]int     `json:"samples"`
	Spreads  map[string]float64 `json:"slice_spread,omitempty"`
	// Bins holds the per-slice (per-round) values behind the medians.
	Bins map[string][]float64 `json:"bins,omitempty"`
	// Raw holds the un-normalised readings of the clock and the machine
	// speed factor they were normalised by (see calibrate.go).
	Raw    map[string]float64    `json:"raw,omitempty"`
	Rows   []row                 `json:"rows,omitempty"`
	Stages map[string]stageStats `json:"stages,omitempty"`
}

// resultLine is the one JSON object the driver reads from the last line
// of standard output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// phase counts the operations of one part of a run.
type phase struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// row is one instance's own line: a cold instance or a serving shape.
type row struct {
	Name     string  `json:"name"`
	Samples  int     `json:"samples"`
	MedianMs float64 `json:"median_ms"`
}

// environment records what the numbers were measured on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

// checkEnvironment refuses settings that would oversubscribe the machine
// and measure the scheduler instead of the program.
func checkEnvironment(cfg config) error {
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds nproc %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if cfg.clients > runtime.NumCPU() {
		return fmt.Errorf("%d clients exceed nproc %d", cfg.clients, runtime.NumCPU())
	}
	return nil
}

// runWorkload executes one workload untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(cfg config, log io.Writer) (*result, error) {
	if err := checkEnvironment(cfg); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		resultLine: resultLine{Metrics: metricSet{}},
		Workload:   cfg.workload, Trace: cfg.trace,
		Phases: map[string]phase{}, Samples: map[string]int{}, Spreads: map[string]float64{},
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Clients: w.clients(),
		},
	}
	defer w.tearDown()
	if cfg.trace {
		err = runTraced(cfg, w, res)
	} else {
		err = runPlain(cfg, w, res)
	}
	if err != nil {
		return nil, err
	}
	res.Digest = w.pins()["inputs"]
	if err := checkPins(cfg, w.pins()); err != nil {
		return nil, err
	}
	for _, p := range res.Phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
	}
	res.Correct = res.Failed == 0
	res.print(log)
	return res, res.save(cfg)
}

func (r *result) addPhase(name string, lr loopResult) {
	r.Phases[name] = phase{Attempted: lr.attempted, Succeeded: lr.attempted - lr.failed, Failed: lr.failed}
}

// runPlain is the untraced pass every end-to-end metric comes from.
func runPlain(cfg config, w workload, res *result) error {
	cal := newCalibrator()
	// Set-up runs setupReps times, and more often while it is short, up to
	// setupBudget of wall time: setup_s is the median.
	var setups []float64
	for rep, began := 0, time.Now(); rep < cfg.setupReps || (time.Since(began) < cfg.setupBudget && rep < 5*cfg.setupReps); rep++ {
		if rep > 0 {
			w.tearDown()
		}
		// Each repetition starts from a collected heap.
		runtime.GC()
		start := time.Now()
		sp, err := cal.during(w.setUp)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds()*sp)
	}
	resetPeakRSS()
	lr := w.measure(time.Duration(cfg.seconds*float64(time.Second)), nil)
	res.addPhase("measure", lr)
	if len(lr.samples) == 0 {
		return fmt.Errorf("no operation succeeded (%d attempted)", lr.attempted)
	}

	// Restart cycles: at least restartCycles of them, and more while they
	// are cheap, up to restartBudget of wall time.
	// A reading before each cycle, on this goroutine (a concurrent sampler
	// would compete with the cycles that use every core); the phase is
	// normalised as a whole.
	var restarts []float64
	rp := phase{}
	cal.readings = cal.readings[:0]
	for i, began := 0, time.Now(); i < cfg.restartCycles || (time.Since(began) < cfg.restartBudget && i < 20*cfg.restartCycles); i++ {
		cal.read(time.Since(began))
		rp.Attempted++
		d, err := w.restart(i)
		if err != nil {
			rp.Failed++
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		rp.Succeeded++
		restarts = append(restarts, ms(d))
	}
	sp := overallSpeed(cal.readings)
	for i := range restarts {
		restarts[i] *= sp
	}
	res.Phases["restart"] = rp
	if len(restarts) == 0 {
		return fmt.Errorf("no restart cycle succeeded")
	}
	// The high-water mark is read before the analysis below allocates.
	peakRSS := peakRSSMB()

	m := res.Metrics
	opCount := w.weight() * float64(len(lr.samples))
	bins, rates, speeds := normalise(w.bins(lr), lr.readings, w.weight())
	samples := flatten(bins)
	lat := latenciesMs(samples)
	overall := overallSpeed(lr.readings)
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", median(rates), "1/s")
	// The median over slices of each slice's median: on the cold list, whose
	// latencies cluster by instance, the median of all samples is an order
	// statistic of whichever instance straddles the middle and jumps about.
	medians := binMedians(bins)
	m.set("latency_p50_ms", median(medians), "ms")
	m.set("opt_geomean_ms", perKeyGeomean(samples), "ms")
	m.set("restart_ready_ms", median(restarts), "ms")
	m.set("cpu_ms_per_op", ms(lr.use.cpu)/opCount*overall, "ms")
	m.set("allocs_per_op", float64(lr.use.mallocs)/opCount, "1")
	m.set("peak_rss_mb", peakRSS, "MB")

	// What the clock read before normalisation, for the record.
	res.Raw = map[string]float64{
		"machine_speed":  overall,
		"kernel_sort_us": medianOf(lr.readings, func(r reading) time.Duration { return r.sort }),
		"kernel_json_us": medianOf(lr.readings, func(r reading) time.Duration { return r.json }),
		"ops_per_s":      opCount / lr.wall.Seconds(),
		"latency_p50_ms": quantile(latenciesMs(lr.samples), 0.5),
		"cpu_ms_per_op":  ms(lr.use.cpu) / opCount,
	}
	res.Samples["latency_p50_ms"] = len(lat)
	res.Samples["ops_per_s"] = len(rates)
	res.Samples["restart_ready_ms"] = len(restarts)
	res.Samples["setup_s"] = len(setups)
	res.Spreads["ops_per_s"] = spread(rates)
	res.Spreads["latency_p50_ms"] = spread(medians)
	res.Spreads["machine_speed"] = spread(speeds)
	res.Bins = map[string][]float64{"ops_per_s": rates, "machine_speed": speeds, "latency_p50_ms": medians}
	p99, p999 := tail(lat)
	res.Rows = instanceRows(w, samples)
	res.Rows = append(res.Rows, row{Name: "(all) p99", Samples: len(lat), MedianMs: p99}, row{Name: "(all) p99.9", Samples: len(lat), MedianMs: p999})
	return nil
}

// instanceRows gives every instance its own row: median latency and the
// sample count behind it.
func instanceRows(w workload, samples []sample) []row {
	byKey := map[int32][]float64{}
	for _, s := range samples {
		byKey[s.key] = append(byKey[s.key], ms(s.lat))
	}
	rows := make([]row, 0, len(byKey))
	for k, v := range byKey {
		rows = append(rows, row{Name: w.keyName(k), Samples: len(v), MedianMs: median(v)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %gs  trace %v  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Workload, r.Env.Seed, r.Env.Seconds, r.Trace, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, name := range sortedKeys(r.Phases) {
		p := r.Phases[name]
		fmt.Fprintf(w, "  phase %-10s attempted %d  succeeded %d  failed %d\n", name, p.Attempted, p.Succeeded, p.Failed)
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-40s %12.4f ms  (%d samples)\n", row.Name, row.MedianMs, row.Samples)
	}
	for _, name := range sortedKeys(r.Stages) {
		st := r.Stages[name]
		fmt.Fprintf(w, "  span %-32s self p50 %10.2f us  (%d spans)\n", name, st.SelfUs, st.Count)
	}
	for _, name := range sortedKeys(r.Raw) {
		fmt.Fprintf(w, "  raw %-28s %14.6g\n", name, r.Raw[name])
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-32s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (%d samples)", n)
		}
		if s, ok := r.Spreads[name]; ok {
			line += fmt.Sprintf("  slice IQR/median %.3f", s)
		}
		fmt.Fprintln(w, line)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// save writes the full result next to the traces.
func (r *result) save(cfg config) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if cfg.trace {
		mode = 1
	}
	return os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, mode)), data, 0o644)
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"moqo/internal/tenant"
)

// A transcript (testdata/transcript/*.txt) is a request script and the
// answers a server gave it. Lines before the first exchange that start with
// "#" describe the script; a line "#! {...}" among them sets the server's
// options (transcriptOptions). Then each exchange is
//
//	>>> METHOD /path
//	Request-Header: value (zero or more lines; only X-Moqo-Tenant is used)
//	request body (zero or more lines)
//	<<< STATUS Content-Type
//	Retry-After: N (when the server sent one)
//	response body, byte for byte
//
// A body line "{{spaces N}}" is sent as N spaces, so a script can send a
// body over the server's size limit without carrying it. A line
// ">>> RESTART" closes the server and opens a new one on the same
// store directory. ">>> HOLD SLOTS" takes every cold-DP slot, so the next
// cold request queues; ">>> HOLD QUEUE" also fills the queue to its bound,
// so the next one is shed; ">>> RELEASE" gives both back. A response body
// runs to the next ">>>" line; every body the server writes ends in a
// newline, so the file needs no other separator.
//
// TestTranscript replays every file against a fresh server over a store in
// a temporary directory and compares each status, content type, Retry-After
// and body with the recorded one, after masking the time-valued fields
// and, in the Prometheus exposition, the time-valued series. Run
// it with MOQO_REGEN_TRANSCRIPT=1 to record the answers of the current
// build.
func TestTranscript(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "transcript", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no transcripts: %v", err)
	}
	regen := os.Getenv("MOQO_REGEN_TRANSCRIPT") == "1"
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".txt"), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			script, err := parseTranscript(raw)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			replayTranscript(t, script)
			if !regen {
				for i, x := range script.exchanges {
					if x.directive != "" {
						continue
					}
					if x.got != x.want {
						n, got, want := firstDiff(x.got, x.want)
						t.Errorf("exchange %d (%s %s, line %d): answer line %d differs:\n got %q\nwant %q",
							i+1, x.method, x.path, x.line, n, got, want)
					}
				}
				return
			}
			if err := os.WriteFile(file, script.render(), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// firstDiff returns the first line (1-based) where two answers differ, and
// that line of each.
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			return i + 1, lineAt(g, i), lineAt(w, i)
		}
	}
	return 0, "", ""
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of answer)"
}

// transcript is one parsed script.
type transcript struct {
	header    []string // the leading comment lines
	opts      transcriptOptions
	exchanges []*exchange
}

// transcriptOptions are the server options a script may set on its "#!"
// line; a script without one runs on the defaults.
type transcriptOptions struct {
	MaxColdDPs int             `json:"max_cold_dps"`
	MaxQueue   int             `json:"max_queue"`
	Tenants    json.RawMessage `json:"tenants"`
}

// exchange is one request of a script, or a directive.
type exchange struct {
	directive    string // RESTART, HOLD SLOTS, HOLD QUEUE or RELEASE; "" for a request
	method, path string
	header       [][2]string // request headers, in script order
	body         string
	line         int // of the ">>>" line, for messages
	// want is the recorded answer: "STATUS Content-Type\n" and the masked
	// body; got is the replayed one in the same form.
	want, got string
}

// timeValued matches the fields whose values are wall-clock readings or
// durations measured against the clock: a request's duration, a server's
// uptime, latency quantiles, and how long to wait before retrying.
var timeValued = regexp.MustCompile(`("(?:duration_ms|uptime_ms|p50|p99|retry_after_ms|retry_in_ms)":\s*)[-+0-9.eE]+`)

// directives are the ">>>" lines that are not requests.
var directives = map[string]bool{"RESTART": true, "HOLD SLOTS": true, "HOLD QUEUE": true, "RELEASE": true}

// timeSeries matches the Prometheus samples that carry wall-clock readings:
// the uptime and the latency quantiles, overall and per tenant.
var timeSeries = regexp.MustCompile(`(?m)^(moqo_(?:uptime_seconds|latency_quantile_ms|tenant_latency_quantile_ms)(?:\{[^}]*\})? )\S+$`)

// spaces matches a body line that stands for N spaces.
var spaces = regexp.MustCompile(`(?m)^\{\{spaces ([0-9]+)\}\}$`)

// expandBody is a script body as sent: every "{{spaces N}}" line becomes N
// spaces.
func expandBody(body string) string {
	return spaces.ReplaceAllStringFunc(body, func(line string) string {
		n, _ := strconv.Atoi(spaces.FindStringSubmatch(line)[1])
		return strings.Repeat(" ", n)
	})
}

// requestHeader matches a request-header line under a request line.
var requestHeader = regexp.MustCompile(`^([A-Z][A-Za-z0-9-]*): (.*)$`)

// maskTimes replaces every time-valued field's or series' number with 0.
func maskTimes(body []byte) []byte {
	return timeSeries.ReplaceAll(timeValued.ReplaceAll(body, []byte("${1}0")), []byte("${1}0"))
}

func parseTranscript(raw []byte) (*transcript, error) {
	s := &transcript{}
	var cur *exchange
	var buf *strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 16<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ">>> "):
			cur = &exchange{line: n}
			buf = nil
			if f := strings.Fields(line[4:]); directives[strings.Join(f, " ")] {
				cur.directive = strings.Join(f, " ")
			} else if len(f) == 2 {
				cur.method, cur.path = f[0], f[1]
			} else {
				return nil, fmt.Errorf("line %d: bad request line %q", n, line)
			}
			s.exchanges = append(s.exchanges, cur)
		case strings.HasPrefix(line, "<<< "):
			if cur == nil || cur.directive != "" || cur.want != "" {
				return nil, fmt.Errorf("line %d: answer without a request", n)
			}
			cur.body = strings.TrimSuffix(cur.body, "\n")
			buf = &strings.Builder{}
			buf.WriteString(line[4:] + "\n")
		case cur == nil:
			if opts, ok := strings.CutPrefix(line, "#! "); ok {
				dec := json.NewDecoder(strings.NewReader(opts))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&s.opts); err != nil {
					return nil, fmt.Errorf("line %d: server options: %v", n, err)
				}
			} else if !strings.HasPrefix(line, "#") && line != "" {
				return nil, fmt.Errorf("line %d: text before the first request", n)
			}
			s.header = append(s.header, line)
		case buf != nil:
			buf.WriteString(line + "\n")
		case cur.directive != "":
			return nil, fmt.Errorf("line %d: %s has no body", n, cur.directive)
		case cur.body == "" && requestHeader.MatchString(line):
			h := requestHeader.FindStringSubmatch(line)
			cur.header = append(cur.header, [2]string{h[1], h[2]})
		default:
			cur.body += line + "\n"
		}
		if buf != nil {
			cur.want = buf.String()
		}
	}
	return s, sc.Err()
}

// render writes the script back with the replayed answers recorded.
func (s *transcript) render() []byte {
	var b bytes.Buffer
	for _, line := range s.header {
		b.WriteString(line + "\n")
	}
	for _, x := range s.exchanges {
		if x.directive != "" {
			b.WriteString(">>> " + x.directive + "\n")
			continue
		}
		fmt.Fprintf(&b, ">>> %s %s\n", x.method, x.path)
		for _, h := range x.header {
			b.WriteString(h[0] + ": " + h[1] + "\n")
		}
		if body := strings.TrimRight(x.body, "\n"); body != "" {
			b.WriteString(body + "\n")
		}
		b.WriteString("<<< " + x.got)
	}
	return b.Bytes()
}

// replayTranscript sends every request of the script, in order, to one
// server over a store in a temporary directory, and records each answer in
// the exchange's got.
func replayTranscript(t *testing.T, s *transcript) {
	t.Helper()
	opts := storeOpts(t.TempDir())
	opts.MaxColdDPs, opts.MaxQueueDepth = s.opts.MaxColdDPs, s.opts.MaxQueue
	if s.opts.Tenants != nil {
		cfg, err := tenant.ParseConfig(s.opts.Tenants)
		if err != nil {
			t.Fatal(err)
		}
		opts.Tenants = tenant.NewRegistry(cfg)
	}
	svc, ts := startTranscriptServer(t, opts)
	var h holder
	defer h.release(svc)
	for _, x := range s.exchanges {
		switch x.directive {
		case "RESTART":
			ts.Close()
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			svc, ts = startTranscriptServer(t, opts)
			continue
		case "HOLD SLOTS":
			h.holdSlots(t, svc)
			continue
		case "HOLD QUEUE":
			h.holdSlots(t, svc)
			h.fillQueue(t, svc)
			continue
		case "RELEASE":
			h.release(svc)
			continue
		}
		req, err := http.NewRequest(x.method, ts.URL+x.path, strings.NewReader(expandBody(x.body)))
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range x.header {
			req.Header.Set(kv[0], kv[1])
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body) > 0 && body[len(body)-1] != '\n' {
			t.Fatalf("line %d: the answer does not end in a newline: %s", x.line, body)
		}
		x.got = strconv.Itoa(res.StatusCode) + " " + res.Header.Get("Content-Type") + "\n"
		if res.Header.Get("Retry-After") != "" {
			// Seconds until a token or a slot frees up: time-valued, masked.
			x.got += "Retry-After: 0\n"
		}
		x.got += string(maskTimes(body))
	}
}

// startTranscriptServer opens a server on opts; the script closes it at a
// restart and the test's cleanup at the end.
func startTranscriptServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := NewE(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// holdTenant is the scheduler identity a script's HOLD takes slots and queue
// places under: not a valid tenant name, so no request can share it and it
// shows in no tenant's metrics.
const holdTenant = "~hold"

// holder keeps the cold-DP slots and queue places a script's HOLD took.
type holder struct {
	slots  int
	cancel context.CancelFunc
	queued sync.WaitGroup
}

// holdSlots takes every free cold-DP slot of svc.
func (h *holder) holdSlots(t *testing.T, svc *Server) {
	t.Helper()
	for h.slots < svc.opts.MaxColdDPs {
		if err := svc.sched.Acquire(context.Background(), holdTenant, 1, 0); err != nil {
			t.Fatal(err)
		}
		h.slots++
	}
}

// fillQueue queues waiters behind the held slots until the queue is at its
// bound, and returns once they all wait.
func (h *holder) fillQueue(t *testing.T, svc *Server) {
	t.Helper()
	if svc.opts.MaxQueueDepth <= 0 {
		t.Fatal("HOLD QUEUE needs a bounded queue (max_queue)")
	}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	for range svc.opts.MaxQueueDepth - svc.sched.Queued() {
		h.queued.Add(1)
		go func() {
			defer h.queued.Done()
			_ = svc.sched.Acquire(ctx, holdTenant, 1, 0)
		}()
	}
	for svc.sched.Queued() < svc.opts.MaxQueueDepth {
		runtime.Gosched()
	}
}

// release withdraws the queued waiters, then gives the held slots back.
func (h *holder) release(svc *Server) {
	if h.cancel != nil {
		h.cancel()
		h.queued.Wait()
		h.cancel = nil
	}
	for ; h.slots > 0; h.slots-- {
		svc.sched.Release(holdTenant)
	}
}

package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A transcript (testdata/transcript/*.txt) is a request script and the
// answers a server gave it. Lines before the first exchange that start with
// "#" describe the script. Then each exchange is
//
//	>>> METHOD /path
//	request body (zero or more lines)
//	<<< STATUS Content-Type
//	response body, byte for byte
//
// and a line ">>> RESTART" closes the server and opens a new one on the
// same store directory. A response body runs to the next ">>>" line; every
// body the server writes ends in a newline, so the file needs no other
// separator.
//
// TestTranscript replays every file against a fresh server over a store in
// a temporary directory and compares each status, content type and body
// with the recorded one, after masking the time-valued fields. Run it with
// MOQO_REGEN_TRANSCRIPT=1 to record the answers of the current build.
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
					if x.restart {
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
	exchanges []*exchange
}

// exchange is one request of a script, or a restart.
type exchange struct {
	restart      bool
	method, path string
	body         string
	line         int // of the ">>>" line, for messages
	// want is the recorded answer: "STATUS Content-Type\n" and the masked
	// body; got is the replayed one in the same form.
	want, got string
}

// timeValued matches the fields whose values are wall-clock readings.
var timeValued = regexp.MustCompile(`("duration_ms":\s*)[-+0-9.eE]+`)

// maskTimes replaces every time-valued field's number with 0.
func maskTimes(body []byte) []byte {
	return timeValued.ReplaceAll(body, []byte("${1}0"))
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
			f := strings.Fields(line[4:])
			cur = &exchange{line: n}
			buf = nil
			switch {
			case len(f) == 1 && f[0] == "RESTART":
				cur.restart = true
			case len(f) == 2:
				cur.method, cur.path = f[0], f[1]
			default:
				return nil, fmt.Errorf("line %d: bad request line %q", n, line)
			}
			s.exchanges = append(s.exchanges, cur)
		case strings.HasPrefix(line, "<<< "):
			if cur == nil || cur.restart || cur.want != "" {
				return nil, fmt.Errorf("line %d: answer without a request", n)
			}
			cur.body = strings.TrimSuffix(cur.body, "\n")
			buf = &strings.Builder{}
			buf.WriteString(line[4:] + "\n")
		case cur == nil:
			if !strings.HasPrefix(line, "#") && line != "" {
				return nil, fmt.Errorf("line %d: text before the first request", n)
			}
			s.header = append(s.header, line)
		case buf != nil:
			buf.WriteString(line + "\n")
		case cur.restart:
			return nil, fmt.Errorf("line %d: a restart has no body", n)
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
		if x.restart {
			b.WriteString(">>> RESTART\n")
			continue
		}
		fmt.Fprintf(&b, ">>> %s %s\n", x.method, x.path)
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
	dir := t.TempDir()
	ts, stop := newTestServerC(t, storeOpts(dir))
	for _, x := range s.exchanges {
		if x.restart {
			stop()
			ts, stop = newTestServerC(t, storeOpts(dir))
			continue
		}
		req, err := http.NewRequest(x.method, ts.URL+x.path, strings.NewReader(x.body))
		if err != nil {
			t.Fatal(err)
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
		x.got = strconv.Itoa(res.StatusCode) + " " + res.Header.Get("Content-Type") + "\n" + string(maskTimes(body))
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeSpec is a two-table query spec over specSeed's catalog.
const decodeSpec = `{"relations": [{"table": "t0"}, {"table": "t1"}], "joins": [{"left": 0, "right": 1, "left_col": "id", "right_col": "id", "selectivity": 0.5}]}`

// decodeCases are bodies at the edges of decodeBatch's structural pass:
// whether the pass elides a repeated query spec (fast) or leaves the body
// as read, and whether they decode at all.
var decodeCases = []struct {
	name     string
	body     string
	fast, ok bool
}{
	{"specs alike", specSeed(decodeSpec, decodeSpec), true, true},
	{"a member key Query", strings.Replace(specSeed(decodeSpec, decodeSpec), `"query"`, `"Query"`, 1), false, true},
	{"a body key MEMBERS", strings.Replace(specSeed(decodeSpec, decodeSpec), `"members"`, `"MEMBERS"`, 1), false, true},
	{"a body key that folds to members", strings.Replace(specSeed(decodeSpec, decodeSpec), `"members"`, `"memberſ"`, 1), false, true},
	{"an escaped query key", strings.Replace(specSeed(decodeSpec, decodeSpec), `"query"`, `"\u0071uery"`, 1), false, true},
	{"a spec string holding brackets, quotes and backslashes",
		specSeed(`{"name": "a}b]c\"d\\e{[\\", `+decodeSpec[1:], `{"name": "a}b]c\"d\\e{[\\", `+decodeSpec[1:]), true, true},
	{"query as a value", specSeed(`{"name": "query", `+decodeSpec[1:], `{"name": "query", `+decodeSpec[1:]), true, true},
	{"query as a member's value",
		strings.Replace(specSeed(decodeSpec, decodeSpec), `"objectives"`, `"tenant": "query", "objectives"`, 1), true, true},
	{"query as an unknown key in a spec", specSeed(decodeSpec, `{"relations": [{"table": "t0", "query": {"query": 1}}]}`), false, false},
	{"query first, in the middle and last", `{"catalog": {"tables": [{"name": "t0", "rows": 10, "width": 8}, {"name": "t1", "rows": 20, "width": 8}]}, "members": [` +
		`{"query": ` + decodeSpec + `, "objectives": ["total_time"], "tenant": "a"}, ` +
		`{"objectives": ["total_time"], "query": ` + decodeSpec + `, "tenant": "a"}, ` +
		`{"objectives": ["total_time"], "tenant": "a", "query": ` + decodeSpec + `}]}`, true, true},
	{"whitespace around a spec", strings.ReplaceAll(specSeed(decodeSpec+" \n", decodeSpec+"\t"), `"query": `, "\"query\"\t:\r\n "), true, true},
	{"a null spec and a null member", strings.Replace(specSeed(`null`, `null`), `"members": [`, `"members": [null, `, 1), true, true},
	{"nullx as a query", specSeed(`nullx`, decodeSpec), false, false},
	{"a spec that is two values", specSeed(`{} {}`, decodeSpec), false, false},
	{"a query spelled twice", strings.Replace(specSeed(decodeSpec, decodeSpec), `"query": `, `"query": null, "query": `, 1), false, true},
	{"a repeat in a member that spells query twice", replaceLast(specSeed(decodeSpec, decodeSpec), `"query": `, `"query": null, "query": `), false, true},
	{"a repeat in a member that also has a Query key", replaceLast(specSeed(decodeSpec, decodeSpec), `"query": `, `"Query": null, "query": `), false, true},
	{"members twice", `{"members": [{"tpch": 3, "objectives": ["total_time"]}], "members": [{"query": null}]}`, false, true},
	{"a type error in a spec", specSeed(decodeSpec, `{"relations": [{"table": 5}]}`), false, false},
	{"a repeated spec that holds an unknown field", specSeed(`{"relations": [{"table": "t0"}], "wat": 1}`, `{"relations": [{"table": "t0"}], "wat": 1}`), true, false},
	{"a repeated spec with a type error, an envelope type error between the copies",
		strings.Replace(specSeed(`{"relations": [{"table": 5}]}`, `{"relations": [{"table": 5}]}`), `"objectives": ["total_time"]`, `"objectives": ["total_time"], "workers": "2"`, 1), true, false},
	{"three copies with a null member between them", strings.Replace(specSeed(decodeSpec, decodeSpec), `}, {"query"`, `}, null, {"query": `+decodeSpec+`, "objectives": ["total_time"]}, {"query"`, 1), true, true},
	{"a trailing value", specSeed(decodeSpec, decodeSpec) + ` {"members": []} trailing`, true, true},
	{"a valid batch and more than the limit of whitespace", specSeed(decodeSpec, decodeSpec) + strings.Repeat(" ", maxBatchBody+1), false, true},
}

// replaceLast replaces the last old in s with new.
func replaceLast(s, old, new string) string {
	i := strings.LastIndex(s, old)
	return s[:i] + new + s[i+len(old):]
}

// elides reports whether decodeBatch's structural pass elides a repeated
// query spec in body.
func elides(body string) bool {
	if len(body) > maxBatchBody {
		return false // the read reaches the limit
	}
	d := batchDecoders.Get().(*batchDecoder)
	defer d.release()
	d.read.WriteString(body)
	d.elide()
	return len(d.repeats) > 0
}

// TestBatchDecodeFallbacks pins in which bodies decodeBatch's structural
// pass elides a repeated spec and which it leaves as read, and holds both
// to a plain decode of the body (checkInternedDecode). A valid batch
// followed by more than the body limit of whitespace is answered, as a
// plain decode that stops at the end of the first value answers it, never
// with a 413.
func TestBatchDecodeFallbacks(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			checkInternedDecode(t, s, []byte(tc.body))
			if fast := elides(tc.body); fast != tc.fast {
				t.Errorf("the structural pass elided a repeat: %v, want %v", fast, tc.fast)
			}
			var wire BatchRequest
			rec := httptest.NewRecorder()
			if ok := s.decodeBatch(rec, httptest.NewRequest(http.MethodPost, "/optimize/batch", strings.NewReader(tc.body)), &wire); ok != tc.ok {
				t.Errorf("decoded %v, want %v: %s", ok, tc.ok, rec.Body.String())
			}
		})
	}
	long := decodeCases[len(decodeCases)-1]
	if rec := serveBatch(t, long.body); rec.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", long.name, rec.Code, rec.Body.String())
	}
}

// FuzzBatchDecode holds decodeBatch to a plain decode of the body into a
// BatchRequest (checkInternedDecode). It runs no handler and no dynamic
// program, so every execution is a decode.
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add([]byte(seed))
	}
	for _, tc := range decodeCases {
		if len(tc.body) <= maxBatchBody {
			f.Add([]byte(tc.body))
		}
	}
	s := New(Options{})
	f.Cleanup(func() { _ = s.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		checkInternedDecode(t, s, body)
	})
}

// checkInternedDecode holds decodeBatch to a plain decode of body into a
// BatchRequest, as Server.decode makes it: both fail with one text, or both
// succeed with deep-equal requests, and two members' specs are one pointer
// exactly when they marshal alike.
func checkInternedDecode(t *testing.T, s *Server, body []byte) {
	t.Helper()
	var plain BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBatchBody))
	dec.DisallowUnknownFields()
	plainErr := dec.Decode(&plain)

	var wire BatchRequest
	rec := httptest.NewRecorder()
	ok := s.decodeBatch(rec, httptest.NewRequest(http.MethodPost, "/optimize/batch", bytes.NewReader(body)), &wire)
	if plainErr != nil {
		var e ErrorResponse
		if ok || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error != "decode request: "+plainErr.Error() {
			t.Fatalf("plain decode failed with %q, the batch decode answered %v: %s", plainErr, ok, rec.Body.String())
		}
		return
	}
	if !ok {
		t.Fatalf("plain decode succeeded, the batch decode answered %s", rec.Body.String())
	}
	if !reflect.DeepEqual(wire, plain) {
		t.Fatalf("the batch decode differs from a plain decode:\n%+v\nwant\n%+v", wire, plain)
	}
	for i, a := range wire.Members {
		for j, b := range wire.Members[:i] {
			if a.Query == nil || b.Query == nil {
				continue
			}
			ra, _ := json.Marshal(a.Query)
			rb, _ := json.Marshal(b.Query)
			if (a.Query == b.Query) != bytes.Equal(ra, rb) {
				t.Fatalf("members %d and %d share a spec: %v; marshal alike: %v", j, i, a.Query == b.Query, bytes.Equal(ra, rb))
			}
		}
	}
}

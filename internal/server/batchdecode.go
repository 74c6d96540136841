package server

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// decodeBatch is s.decode of a /optimize/batch body into wire — the same
// limit, the same request, the same 400 and 413 texts — except that
// encoding/json reads each member's query spec once per distinct spelling,
// and canonically equal specs are one *QuerySpec: equal json.Marshal output
// (struct marshaling is deterministic), computed once per spelling.
// memberQuery keys a batch's query objects by that pointer, so no member's
// spec is decoded or marshaled on its own.
//
// The body is read whole into a pooled buffer, and one structural pass over
// it (batchDecoder.scan) finds each member's query value; encoding/json
// then decodes the envelope with those values replaced by short
// placeholders, and each distinct spelling from its place in the buffer.
// Anything the pass does not follow exactly as encoding/json would — a key
// at the body's or a member's level that holds an escape or a non-ASCII
// byte, or equals "members" or "query" only under case folding; a repeated
// "members" or "query" key; a spelling that is not one JSON value; an
// envelope that does not decode; a read that reaches the limit or fails —
// sends the bytes read, and the rest of the body, through a plain decode
// into a BatchRequest, as s.decode would: the error is then its error, the
// first in document order, with the field path of the whole body.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request, wire *BatchRequest) bool {
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	d := batchDecoders.Get().(*batchDecoder)
	defer d.release()
	if _, err := d.read.ReadFrom(body); err == nil && d.decode(wire) {
		return true
	}
	*wire = BatchRequest{}
	if !s.decodeFrom(w, io.MultiReader(&d.read, body), wire) {
		return false
	}
	seen := make(map[string]*QuerySpec)
	for i := range wire.Members {
		wire.Members[i].Query = canonical(seen, wire.Members[i].Query)
	}
	return true
}

// batchDecoder is one batch decode's buffers, pooled.
type batchDecoder struct {
	read  bytes.Buffer // the body as read
	env   []byte       // its first value, each query value a placeholder
	specs []specAt     // the members' query values, in body order
}

// specAt is where one member's query value lies in the body, and the spec
// it decodes to.
type specAt struct {
	start, end int
	spec       *QuerySpec
}

var batchDecoders = sync.Pool{New: func() any { return new(batchDecoder) }}

// specHashes hashes spellings to find the repeated ones.
var specHashes = maphash.MakeSeed()

func (d *batchDecoder) release() {
	if d.read.Cap() > maxPooledBody {
		return
	}
	d.read.Reset()
	clear(d.specs) // drop the decoded specs
	d.specs = d.specs[:0]
	batchDecoders.Put(d)
}

// batchEnvelope is a BatchRequest whose members' query specs are
// placeholders: the k-th query value in the body is the number k (from 1).
// Its Members, and memberEnvelope's Query, shadow the embedded fields of the
// same JSON name, so the rest of the body decodes into BatchRequest's and
// BatchMemberRequest's own fields, unknown ones rejected alike.
type batchEnvelope struct {
	BatchRequest
	Members []memberEnvelope `json:"members"`
}

type memberEnvelope struct {
	BatchMemberRequest
	Query int `json:"query"`
}

// decode sets wire to the body in d.read, or reports false, with wire to
// be decoded again, where the pass or a decode did not go through.
func (d *batchDecoder) decode(wire *BatchRequest) bool {
	b := d.read.Bytes()
	start, end := d.scan(b)
	if end < 0 {
		return false
	}
	d.env = d.env[:0]
	for k, sp := range d.specs {
		d.env = append(d.env, b[start:sp.start]...)
		d.env = strconv.AppendInt(d.env, int64(k+1), 10)
		start = sp.end
	}
	d.env = append(d.env, b[start:end]...)
	var env batchEnvelope
	if !decodeExactly(d.env, &env) {
		return false
	}

	first := make(map[uint64]int) // a spelling's hash → its first place in d.specs
	seen := make(map[string]*QuerySpec)
	for k := range d.specs {
		sp := &d.specs[k]
		raw := b[sp.start:sp.end]
		h := maphash.Bytes(specHashes, raw)
		if j, ok := first[h]; ok && bytes.Equal(raw, b[d.specs[j].start:d.specs[j].end]) {
			sp.spec = d.specs[j].spec
			continue
		} else if !ok {
			first[h] = k
		}
		if !decodeExactly(raw, &sp.spec) {
			return false
		}
		sp.spec = canonical(seen, sp.spec)
	}

	*wire = env.BatchRequest
	if env.Members == nil {
		return true
	}
	wire.Members = make([]BatchMemberRequest, len(env.Members))
	// The placeholders come back in body order, each once, unless the pass
	// and encoding/json read the body's structure differently: then the
	// plain decode answers.
	next := 0 // the next query value's place in d.specs
	for i := range env.Members {
		m := &env.Members[i]
		wire.Members[i] = m.BatchMemberRequest
		if m.Query == 0 {
			continue
		}
		if m.Query != next+1 {
			return false
		}
		wire.Members[i].Query = d.specs[next].spec
		next++
	}
	return next == len(d.specs)
}

// decodeExactly decodes raw into v, unknown fields rejected, and reports
// whether raw is exactly one JSON value that decodes.
func decodeExactly(raw []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && dec.InputOffset() == int64(len(raw))
}

// canonical returns the first spec in seen that marshals as spec does, and
// records spec if there is none.
func canonical(seen map[string]*QuerySpec, spec *QuerySpec) *QuerySpec {
	if spec == nil {
		return nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return spec
	}
	if known, ok := seen[string(raw)]; ok {
		return known
	}
	seen[string(raw)] = spec
	return spec
}

// scan is the one structural pass over a batch body b: it returns where
// b's first value starts and ends, and records in d.specs where each
// member's query value lies, or returns end -1 where the envelope decode
// could read b otherwise than the plain one. It follows strings, escapes
// and nesting, and the grammar of the body's and each member's object, but
// validates nothing else: the decodes after it do.
func (d *batchDecoder) scan(b []byte) (start, end int) {
	d.specs = d.specs[:0]
	start = skipSpace(b, 0)
	members := false
	end = walkObject(b, start, func(key []byte, p int) int {
		if string(key) != "members" {
			return skipValue(b, p)
		}
		if members {
			return -1
		}
		members = true
		return d.scanMembers(b, p)
	})
	return start, end
}

// scanMembers skips the members value at b[p] and returns its end,
// recording each member object's query value.
func (d *batchDecoder) scanMembers(b []byte, p int) int {
	if p >= len(b) || b[p] != '[' {
		return skipValue(b, p)
	}
	p = skipSpace(b, p+1)
	if p < len(b) && b[p] == ']' {
		return p + 1
	}
	for {
		if p < len(b) && b[p] == '{' {
			p = d.scanMember(b, p)
		} else {
			p = skipValue(b, p)
		}
		if p < 0 {
			return -1
		}
		if p = skipSpace(b, p); p >= len(b) {
			return -1
		}
		switch b[p] {
		case ',':
			p = skipSpace(b, p+1)
		case ']':
			return p + 1
		default:
			return -1
		}
	}
}

// scanMember skips the member object at b[p] and returns its end,
// recording its query value.
func (d *batchDecoder) scanMember(b []byte, p int) int {
	query := false
	return walkObject(b, p, func(key []byte, p int) int {
		if string(key) != "query" {
			return skipValue(b, p)
		}
		if query {
			return -1
		}
		query = true
		end := skipValue(b, p)
		if end >= 0 {
			d.specs = append(d.specs, specAt{start: p, end: end})
		}
		return end
	})
}

// walkObject skips the object at b[p] and returns its end. It calls value
// with each key (the bytes between its quotes) and the position of its
// value, which value skips and returns the end of. It returns -1 when b
// does not follow the object grammar, a value returns -1, or a key holds an
// escape or a non-ASCII byte or equals "members" or "query" only under case
// folding: encoding/json matches a key to a field by its unescaped text,
// exactly or else case-insensitively (with Unicode folds such as 'ſ' for
// 's'), and the pass reads those two keys by their bytes.
func walkObject(b []byte, p int, value func(key []byte, p int) int) int {
	if p >= len(b) || b[p] != '{' {
		return -1
	}
	p = skipSpace(b, p+1)
	if p < len(b) && b[p] == '}' {
		return p + 1
	}
	for {
		if p >= len(b) || b[p] != '"' {
			return -1
		}
		k := p + 1
		if p = skipString(b, p); p < 0 {
			return -1
		}
		key := b[k : p-1]
		for _, c := range key {
			if c == '\\' || c >= utf8.RuneSelf {
				return -1
			}
		}
		if foldsOnly(key, "members") || foldsOnly(key, "query") {
			return -1
		}
		if p = skipSpace(b, p); p >= len(b) || b[p] != ':' {
			return -1
		}
		if p = value(key, skipSpace(b, p+1)); p < 0 {
			return -1
		}
		if p = skipSpace(b, p); p >= len(b) {
			return -1
		}
		switch b[p] {
		case ',':
			p = skipSpace(b, p+1)
		case '}':
			return p + 1
		default:
			return -1
		}
	}
}

// foldsOnly reports whether key equals name under ASCII case folding but
// not byte for byte.
func foldsOnly(key []byte, name string) bool {
	return len(key) == len(name) && string(key) != name && bytes.EqualFold(key, []byte(name))
}

// skipValue returns the end of the value at b[p], or -1 when b ends first:
// a string, an object or array to its matching bracket, or anything else
// up to the next whitespace, comma or closing bracket.
func skipValue(b []byte, p int) int {
	if p >= len(b) {
		return -1
	}
	switch b[p] {
	case '"':
		return skipString(b, p)
	case '{', '[':
		depth := 0
		for p < len(b) {
			switch b[p] {
			case '"':
				if p = skipString(b, p); p < 0 {
					return -1
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return p + 1
				}
			}
			p++
		}
		return -1
	}
	for ; p < len(b); p++ {
		switch b[p] {
		case ' ', '\t', '\r', '\n', ',', '}', ']':
			return p
		}
	}
	return p
}

// skipString returns the end of the string whose quote is b[p], or -1.
func skipString(b []byte, p int) int {
	for p++; p < len(b); p++ {
		switch b[p] {
		case '"':
			return p + 1
		case '\\':
			p++
		}
	}
	return -1
}

// skipSpace returns the position of the first byte at or after p that is
// not JSON whitespace.
func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\t' || b[p] == '\r' || b[p] == '\n') {
		p++
	}
	return p
}

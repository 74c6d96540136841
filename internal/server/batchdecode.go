package server

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"unicode/utf8"
)

// decodeBatch is s.decode of a /optimize/batch body into wire — the same
// limit, the same request, the same 400 and 413 texts — except that a
// member's query spec that repeats an earlier member's byte for byte is not
// decoded again, and canonically equal specs are one *QuerySpec: equal
// json.Marshal output (struct marshaling is deterministic), computed once
// per distinct spec. memberQuery keys a batch's query objects by that
// pointer, so no repeated spec is decoded or marshaled on its own.
//
// The body is read whole into a pooled buffer, and one structural pass over
// it (batchDecoder.scan) finds each member's query value and replaces each
// one that repeats an earlier value with null; s.decodeFrom then decodes
// that body into wire, and each elided member takes the spec of the member
// it repeats. The errors stay s.decode's: a repeat's errors are those of its
// first spelling, which comes earlier in the body, so the first error in
// document order is the same. A body the pass does not follow exactly as
// encoding/json would — a key at the body's or a member's level that holds
// an escape or a non-ASCII byte, or equals "members" or "query" only under
// case folding; a repeated "members" or "query" key — is decoded as read,
// and a read that reaches the limit or fails decodes the bytes read and the
// rest of the body, as s.decode would.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request, wire *BatchRequest) bool {
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	d := batchDecoders.Get().(*batchDecoder)
	defer d.release()
	var in io.Reader
	if _, err := d.read.ReadFrom(body); err != nil {
		in = io.MultiReader(&d.read, body)
	} else {
		in = bytes.NewReader(d.elide())
	}
	if !s.decodeFrom(w, in, wire) {
		return false
	}
	if d.restore(wire) {
		return true
	}
	// The decode read the body's structure otherwise than the pass did:
	// decode the body as read.
	*wire = BatchRequest{}
	d.repeats = d.repeats[:0]
	return s.decodeFrom(w, bytes.NewReader(d.read.Bytes()), wire) && d.restore(wire)
}

// batchDecoder is one batch decode's buffers, pooled.
type batchDecoder struct {
	read    bytes.Buffer       // the body as read
	elided  []byte             // the body with each repeated query value null
	firsts  map[uint64]queryAt // a spelling's hash → its first query value
	repeats []queryAt          // the query values that repeat an earlier one, in body order
}

// queryAt is a member's query value in the body, b[start:end], and the
// member of that value's first spelling.
type queryAt struct{ member, of, start, end int }

var batchDecoders = sync.Pool{New: func() any {
	return &batchDecoder{firsts: make(map[uint64]queryAt)}
}}

// specHashes hashes spellings to find the repeated ones.
var specHashes = maphash.MakeSeed()

func (d *batchDecoder) release() {
	if d.read.Cap() > maxPooledBody || cap(d.elided) > maxPooledBody {
		return
	}
	d.read.Reset()
	clear(d.firsts)
	d.repeats = d.repeats[:0]
	batchDecoders.Put(d)
}

// elide returns the body in d.read with each repeated query value replaced
// by null, or the body as read when the pass cannot vouch for it or no
// value repeats.
func (d *batchDecoder) elide() []byte {
	b := d.read.Bytes()
	if !d.scan(b) || len(d.repeats) == 0 {
		d.repeats = d.repeats[:0]
		return b
	}
	d.elided = d.elided[:0]
	prev := 0
	for _, q := range d.repeats {
		d.elided = append(append(d.elided, b[prev:q.start]...), "null"...)
		prev = q.end
	}
	d.elided = append(d.elided, b[prev:]...)
	return d.elided
}

// restore gives each elided member of wire the spec of the member it
// repeats and interns the others' (canonical), or reports false where an
// elided member's query did not decode to nil.
func (d *batchDecoder) restore(wire *BatchRequest) bool {
	seen := make(map[string]*QuerySpec)
	k := 0 // the next repeat in d.repeats
	for i := range wire.Members {
		m := &wire.Members[i]
		if k == len(d.repeats) || d.repeats[k].member != i {
			m.Query = canonical(seen, m.Query)
			continue
		}
		if m.Query != nil {
			return false
		}
		m.Query = wire.Members[d.repeats[k].of].Query
		k++
	}
	return k == len(d.repeats)
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

// scan is the one structural pass over a batch body b: it records in
// d.repeats each member's query value that repeats an earlier one byte for
// byte, or reports false where encoding/json could read b's structure
// otherwise. It follows strings, escapes and nesting, and the grammar of the
// body's and each member's object, but validates nothing else: the decode
// after it does.
func (d *batchDecoder) scan(b []byte) bool {
	members := false
	return walkObject(b, skipSpace(b, 0), func(key []byte, p int) int {
		if string(key) != "members" {
			return skipValue(b, p)
		}
		if members {
			return -1
		}
		members = true
		return d.scanMembers(b, p)
	}) >= 0
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
	for i := 0; ; i++ {
		if p < len(b) && b[p] == '{' {
			p = d.scanMember(b, p, i)
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

// scanMember skips the object of member i at b[p] and returns its end,
// recording its query value if it repeats an earlier one.
func (d *batchDecoder) scanMember(b []byte, p, i int) int {
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
		if end < 0 {
			return -1
		}
		h := maphash.Bytes(specHashes, b[p:end])
		first, ok := d.firsts[h]
		switch {
		case !ok:
			d.firsts[h] = queryAt{member: i, of: i, start: p, end: end}
		case bytes.Equal(b[p:end], b[first.start:first.end]):
			d.repeats = append(d.repeats, queryAt{member: i, of: first.member, start: p, end: end})
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

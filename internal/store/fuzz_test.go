package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// FuzzStoreRecovery damages a real segment at a fuzzed offset — flipped
// bytes, or a truncation — and opens the store over it: Open never panics
// or fails, never serves a value that was not written under its key, and
// serves every record lying wholly before the first damaged byte.
func FuzzStoreRecovery(f *testing.F) {
	const records = 8
	keys, vals := make([]string, records), make([][]byte, records)
	// ends[i] is the offset just past record i: records are framed back to
	// back after the file header, in Put order.
	ends := make([]int, records)
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	end := headerSize
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		vals[i] = bytes.Repeat([]byte{byte('a' + i)}, 8*(i+1))
		if err := s.Put(keys[i], vals[i]); err != nil {
			f.Fatal(err)
		}
		end += recHeadSize + len(keys[i]) + len(vals[i]) + recTailSize
		ends[i] = end
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	segment, err := os.ReadFile(seg1(dir))
	if err != nil {
		f.Fatal(err)
	}
	if len(segment) != end {
		f.Fatalf("segment is %d bytes, want %d", len(segment), end)
	}

	// Seeds: the file header, a record header, a key, a value, a body
	// checksum, the last byte, and truncations on and off a record boundary.
	f.Add(uint16(0), uint8(1), byte(0xff), false)
	f.Add(uint16(ends[0]), uint8(1), byte(0x01), false)
	f.Add(uint16(ends[1]+recHeadSize), uint8(2), byte(0x20), false)
	f.Add(uint16(ends[2]+recHeadSize+6), uint8(4), byte(0x80), false)
	f.Add(uint16(ends[4]-1), uint8(1), byte(0x10), false)
	f.Add(uint16(end-1), uint8(1), byte(0xff), false)
	f.Add(uint16(ends[3]), uint8(0), byte(0), true)
	f.Add(uint16(ends[5]-3), uint8(0), byte(0), true)

	f.Fuzz(func(t *testing.T, off uint16, n uint8, mask byte, truncate bool) {
		data := bytes.Clone(segment)
		var firstBad int
		if truncate {
			firstBad = int(off) % (len(data) + 1)
			data = data[:firstBad]
		} else {
			if mask == 0 {
				mask = 0xff
			}
			firstBad = int(off) % len(data)
			for i := firstBad; i < min(len(data), firstBad+max(int(n), 1)); i++ {
				data[i] ^= mask
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(seg1(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("Open over a damaged segment: %v", err)
		}
		defer s.Close()
		served := 0
		for i, key := range keys {
			got, ok := s.Get(key)
			switch {
			case ok && !bytes.Equal(got, vals[i]):
				t.Errorf("%s served %q, written %q", key, got, vals[i])
			case !ok && ends[i] <= firstBad:
				t.Errorf("%s lost: it ends at %d, before the first damaged byte %d", key, ends[i], firstBad)
			}
			if ok {
				served++
			}
		}
		if st := s.Stats(); st.Entries != served {
			t.Errorf("the index holds %d entries, %d of them written keys", st.Entries, served)
		}
	})
}

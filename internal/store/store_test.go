package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// openT opens a store in dir with small, test-friendly settings.
func openT(t *testing.T, dir string, mutate ...func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, NoSync: true}
	for _, m := range mutate {
		m(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get of absent key reported ok")
	}
	val := []byte("snapshot-bytes")
	if err := s.Put("k1", val); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	// Returned slice must be a private copy.
	got[0] = 'X'
	if again, _ := s.Get("k1"); !bytes.Equal(again, val) {
		t.Fatalf("Get returned aliased bytes: %q", again)
	}
	if err := s.Put("k1", []byte("v2")); err != nil {
		t.Fatalf("Put replace: %v", err)
	}
	if got, _ := s.Get("k1"); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("replaced Get = %q; want v2", got)
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("Get after Delete reported ok")
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatalf("Delete of absent key: %v", err)
	}
	st := s.Stats()
	if st.Writes != 2 {
		t.Errorf("Writes = %d; want 2", st.Writes)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("Hits/Misses = %d/%d; want 3/2", st.Hits, st.Misses)
	}
	if st.CorruptDropped != 0 {
		t.Errorf("CorruptDropped = %d; want 0", st.CorruptDropped)
	}
}

func TestReopenRestoresEntries(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := bytes.Repeat([]byte{byte(i)}, 100+i)
		want[k] = v
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Delete("key-07"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "key-07")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openT(t, dir)
	if s2.Len() != len(want) {
		t.Fatalf("Len after reopen = %d; want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) after reopen = %q, %v; want %q", k, got, ok, v)
		}
	}
	if _, ok := s2.Get("key-07"); ok {
		t.Fatal("deleted key resurrected after reopen")
	}
	if st := s2.Stats(); st.CorruptDropped != 0 {
		t.Errorf("clean reopen counted CorruptDropped = %d", st.CorruptDropped)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(o *Options) { o.SegmentBytes = 512 })
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), bytes.Repeat([]byte("v"), 64)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("Segments = %d; want rotation to have produced several", st.Segments)
	}
	s.Close()
	s2 := openT(t, dir, func(o *Options) { o.SegmentBytes = 512 })
	if s2.Len() != 30 {
		t.Fatalf("Len after multi-segment reopen = %d; want 30", s2.Len())
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	// One record frames to 278 bytes (13 header + 5 key + 256 value +
	// 4 trailer): 8 fit the budget, the 9th forces an eviction.
	s := openT(t, t.TempDir(), func(o *Options) { o.MaxBytes = 8 * 278 })
	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Touch key-0 so key-1 is the LRU victim of the next overflow.
	if _, ok := s.Get("key-0"); !ok {
		t.Fatal("key-0 evicted too early")
	}
	if err := s.Put("key-8", val); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, ok := s.Get("key-0"); !ok {
		t.Error("recently-used key-0 was evicted")
	}
	if _, ok := s.Get("key-1"); ok {
		t.Error("LRU key-1 survived over-budget Put")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Error("Evictions = 0; want > 0")
	}
	if st.Bytes > 8*278 {
		t.Errorf("Bytes = %d; want <= budget", st.Bytes)
	}
}

// TestTouch: Touch is the recency bump of a Get hit without the read —
// the touched entry outlives an untouched older one at the next budget
// eviction — and it never writes: not for a live key, a missing key or a
// closed store.
func TestTouch(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(o *Options) { o.MaxBytes = 2 * 274 }) // 13 + 1 + 256 + 4 per record
	val := bytes.Repeat([]byte("x"), 256)
	for _, k := range []string{"a", "b"} {
		if err := s.Put(k, val); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	segSize := func() int64 {
		fi, err := os.Stat(seg1(dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before, size := s.Stats(), segSize()
	s.Touch("a")
	s.Touch("missing")
	if after := s.Stats(); after != before || segSize() != size {
		t.Fatalf("Touch changed the store: stats %+v -> %+v, segment %d -> %d bytes", before, after, size, segSize())
	}

	if err := s.Put("c", val); err != nil { // over budget: evicts the LRU entry
		t.Fatalf("Put c: %v", err)
	}
	if _, ok := s.Get("a"); !ok {
		t.Error("touched a was evicted")
	}
	if _, ok := s.Get("b"); ok {
		t.Error("untouched b survived the over-budget Put")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, size = s.Stats(), segSize()
	s.Touch("a")
	if after := s.Stats(); after != before || segSize() != size {
		t.Fatalf("Touch on a closed store changed it: stats %+v -> %+v", before, after)
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, func(o *Options) { o.SegmentBytes = 1024 })
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < 10; i++ {
		for j := 0; j < 5; j++ { // rewrite each key so most records are dead
			if err := s.Put(fmt.Sprintf("key-%d", i), val); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("expected dead bytes before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 {
		t.Errorf("DeadBytes after compact = %d; want 0", after.DeadBytes)
	}
	if after.Segments != 1 {
		t.Errorf("Segments after compact = %d; want 1", after.Segments)
	}
	if after.Compactions != 1 {
		t.Errorf("Compactions = %d; want 1", after.Compactions)
	}
	for i := 0; i < 10; i++ {
		if got, ok := s.Get(fmt.Sprintf("key-%d", i)); !ok || !bytes.Equal(got, val) {
			t.Fatalf("key-%d lost by compaction", i)
		}
	}
	s.Close()
	// The compacted layout must also replay.
	s2 := openT(t, dir)
	if s2.Len() != 10 {
		t.Fatalf("Len after compact+reopen = %d; want 10", s2.Len())
	}
	if st := s2.Stats(); st.CorruptDropped != 0 {
		t.Errorf("compacted layout counted CorruptDropped = %d", st.CorruptDropped)
	}
}

func TestBackgroundCompactionTriggers(t *testing.T) {
	s := openT(t, t.TempDir())
	val := bytes.Repeat([]byte("v"), 64<<10)
	for i := 0; i < 40; i++ { // ~2.5MB of rewrites of few keys → mostly dead
		if err := s.Put(fmt.Sprintf("key-%d", i%4), val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s.compactWG.Wait()
	if st := s.Stats(); st.Compactions == 0 {
		t.Errorf("background compaction never ran: %+v", st)
	}
}

// --- crash-consistency layouts, constructed on disk ---

// seg1 returns the path of the first segment in dir.
func seg1(dir string) string { return filepath.Join(dir, segName(1)) }

// buildStore writes n keys and closes the store, returning dir.
func buildStore(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte('a' + i)}, 64)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// checkSurvivors asserts exactly the keys in want (of key-0..key-(n-1))
// are readable, each with its original value.
func checkSurvivors(t *testing.T, s *Store, n int, want map[int]bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, ok := s.Get(fmt.Sprintf("key-%d", i))
		if want[i] != ok {
			t.Errorf("key-%d survived=%v; want %v", i, ok, want[i])
			continue
		}
		if ok && !bytes.Equal(got, bytes.Repeat([]byte{byte('a' + i)}, 64)) {
			t.Errorf("key-%d value damaged: %q", i, got)
		}
	}
}

func TestRecoverTruncatedTail(t *testing.T) {
	dir := buildStore(t, 3)
	// Simulate a crash mid-append: chop the last record in half.
	data, err := os.ReadFile(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1(dir), data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	checkSurvivors(t, s, 3, map[int]bool{0: true, 1: true})
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d; want 1", st.CorruptDropped)
	}
	// The torn bytes must be gone from disk so appends work cleanly.
	if err := s.Put("key-2", bytes.Repeat([]byte{'c'}, 64)); err != nil {
		t.Fatalf("Put after truncation recovery: %v", err)
	}
	s.Close()
	s2 := openT(t, dir)
	checkSurvivors(t, s2, 3, map[int]bool{0: true, 1: true, 2: true})
	if st := s2.Stats(); st.CorruptDropped != 0 {
		t.Errorf("second reopen CorruptDropped = %d; want 0", st.CorruptDropped)
	}
}

func TestRecoverBitFlippedBody(t *testing.T) {
	dir := buildStore(t, 3)
	// Flip one byte inside the *second* record's value: its header CRC
	// stays intact, so only that record is dropped and key-2 (after it)
	// must still load.
	data, err := os.ReadFile(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	recSize := (int64(len(data)) - int64(headerSize)) / 3
	off := int64(headerSize) + recSize + int64(recHeadSize) + 10 // inside record 2's key/val body
	data[off] ^= 0x40
	if err := os.WriteFile(seg1(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	checkSurvivors(t, s, 3, map[int]bool{0: true, 2: true})
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d; want 1", st.CorruptDropped)
	}
}

func TestRecoverBitFlippedHeader(t *testing.T) {
	dir := buildStore(t, 3)
	// Flip a byte in the second record's length field: the framing is
	// untrustworthy from that point, so the segment truncates there —
	// key-1 and key-2 are gone, key-0 survives.
	data, err := os.ReadFile(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	recSize := (int64(len(data)) - int64(headerSize)) / 3
	data[int64(headerSize)+recSize+2] ^= 0x01 // keyLen byte of record 2
	if err := os.WriteFile(seg1(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	checkSurvivors(t, s, 3, map[int]bool{0: true})
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d; want 1", st.CorruptDropped)
	}
}

func TestRecoverForeignFileHeader(t *testing.T) {
	dir := buildStore(t, 2)
	data, err := os.ReadFile(seg1(dir))
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "NOPE")
	if err := os.WriteFile(seg1(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	if s.Len() != 0 {
		t.Fatalf("Len = %d; want 0 after unrecognized segment header", s.Len())
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d; want 1", st.CorruptDropped)
	}
	// The reset segment must accept appends again.
	if err := s.Put("fresh", []byte("v")); err != nil {
		t.Fatalf("Put after header reset: %v", err)
	}
	s.Close()
	s2 := openT(t, dir)
	if got, ok := s2.Get("fresh"); !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("fresh key lost after reset+reopen: %q, %v", got, ok)
	}
}

func TestRecoverDuplicateKeyAcrossSegments(t *testing.T) {
	// A crash after a compaction rename but before old-segment removal
	// leaves the same key in two segments; the higher sequence must win.
	dir := t.TempDir()
	writeSeg := func(seq int64, val string) {
		f, err := os.Create(filepath.Join(dir, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFileHeader(f); err != nil {
			t.Fatal(err)
		}
		rec := frameRecord(recPut, "dup", []byte(val))
		if _, err := f.WriteAt(rec, int64(headerSize)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	writeSeg(1, "old-value")
	writeSeg(2, "new-value")
	s := openT(t, dir)
	got, ok := s.Get("dup")
	if !ok || !bytes.Equal(got, []byte("new-value")) {
		t.Fatalf("Get(dup) = %q, %v; want new-value from the higher segment", got, ok)
	}
	st := s.Stats()
	if st.CorruptDropped != 0 {
		t.Errorf("CorruptDropped = %d; want 0 — duplicates are valid, not corrupt", st.CorruptDropped)
	}
	if st.DeadBytes == 0 {
		t.Error("superseded duplicate not accounted as dead bytes")
	}
}

func TestRecoverKillMidCompaction(t *testing.T) {
	// A crash *before* the compaction rename leaves an orphaned
	// seg-N.log.tmp; recovery must delete it and serve from the old
	// segments untouched.
	dir := buildStore(t, 3)
	tmp := filepath.Join(dir, segName(2)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("half-written compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	checkSurvivors(t, s, 3, map[int]bool{0: true, 1: true, 2: true})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("orphaned %s not removed (err=%v)", tmp, err)
	}
	if st := s.Stats(); st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d; want 1 for the orphaned temporary", st.CorruptDropped)
	}
}

func TestGetDetectsBitRotAfterOpen(t *testing.T) {
	dir := buildStore(t, 2)
	s := openT(t, dir)
	if _, ok := s.Get("key-0"); !ok {
		t.Fatal("key-0 missing before rot")
	}
	// Rot a byte of key-1's value behind the open store's back.
	f, err := os.OpenFile(seg1(dir), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ent := s.index["key-1"]
	if _, err := f.WriteAt([]byte{0xFF}, ent.off+int64(recHeadSize)+20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := s.Get("key-1"); ok {
		t.Fatal("Get served a record whose body checksum no longer verifies")
	}
	st := s.Stats()
	if st.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d; want 1", st.CorruptDropped)
	}
	if _, ok := s.Get("key-1"); ok {
		t.Fatal("damaged entry still indexed after drop")
	}
}

func TestTombstoneSurvivesCompactionOfEarlierSegment(t *testing.T) {
	// Delete in a later segment must not resurrect the put from an
	// earlier one after compaction + reopen.
	dir := t.TempDir()
	s := openT(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	if err := s.Put("doomed", bytes.Repeat([]byte("v"), 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // force rotation past the first segment
		if err := s.Put(fmt.Sprintf("pad-%d", i), bytes.Repeat([]byte("p"), 200)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir)
	if _, ok := s2.Get("doomed"); ok {
		t.Fatal("deleted key resurrected by compaction")
	}
	if s2.Len() != 5 {
		t.Fatalf("Len = %d; want 5", s2.Len())
	}
}

// frameRecord builds one framed record the way appendRecord does,
// for tests that construct segment layouts by hand.
func frameRecord(typ byte, key string, val []byte) []byte {
	n := recHeadSize + len(key) + len(val) + recTailSize
	buf := make([]byte, n)
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(val)))
	binary.LittleEndian.PutUint32(buf[9:13], crc32.Checksum(buf[:9], castagnoli))
	copy(buf[recHeadSize:], key)
	copy(buf[recHeadSize+len(key):], val)
	binary.LittleEndian.PutUint32(buf[n-recTailSize:], crc32.Checksum(buf[recHeadSize:n-recTailSize], castagnoli))
	return buf
}

func TestConcurrentAccess(t *testing.T) {
	s := openT(t, t.TempDir())
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("key-%d-%d", w, i%10)
				if e := s.Put(k, bytes.Repeat([]byte{byte(w)}, 64)); e != nil {
					err = e
					break
				}
				s.Get(k)
				s.Touch(fmt.Sprintf("key-%d-%d", (w+1)%8, i%10)) // a neighbour's key: present, deleted or never written
				if i%7 == 0 {
					s.Delete(k)
				}
				if i%25 == 0 {
					if e := s.Compact(); e != nil {
						err = e
						break
					}
				}
			}
			done <- err
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent worker: %v", err)
		}
	}
}

// TestGetValueIsPrivate: the value Get returns is the caller's own — every
// byte overwritten and appended to, the next Get (and a reopened store)
// still reads what was put — and a hit allocates no second copy of it.
func TestGetValueIsPrivate(t *testing.T) {
	const key = "frontier/0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	dir := t.TempDir()
	s := openT(t, dir)
	val := []byte("frontier-snapshot-bytes")
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	for i := range got {
		got[i] = 'X'
	}
	_ = append(got, "tail-overwrite"...) // writes past the value if its capacity runs on
	if again, ok := s.Get(key); !ok || !bytes.Equal(again, val) {
		t.Fatalf("Get after mutating a returned value = %q, %v; want %q", again, ok, val)
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Get(key) }); allocs > 2 {
		t.Errorf("a store hit allocates %.0f times; want at most 2 (the read buffer and the record's key)", allocs)
	}
	s.Close()
	if again, ok := openT(t, dir).Get(key); !ok || !bytes.Equal(again, val) {
		t.Fatalf("reopened Get = %q, %v; want %q", again, ok, val)
	}
}

package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"moqo/internal/fault"
)

const (
	segPrefix = "seg-"
	segSuffix = ".log"
	tmpSuffix = ".tmp"

	fileMagic  = "MOQL"
	fileVer    = 1
	headerSize = len(fileMagic) + 2 // magic + u16 version

	recPut       = 1
	recTombstone = 2

	// recHeadSize frames type+keyLen+valLen+headCRC; recTailSize the
	// trailing bodyCRC.
	recHeadSize = 1 + 4 + 4 + 4
	recTailSize = 4

	// maxKeyLen / maxValLen bound what a record header may claim before
	// any allocation trusts it (headers are checksummed, but a bound on
	// top costs nothing and caps even a colliding corruption).
	maxKeyLen = 1 << 20
	maxValLen = 1 << 30
)

// castagnoli is the CRC-32C table used for both record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// Dir is the store directory (required; created if absent).
	Dir string
	// MaxBytes bounds the live record bytes; exceeding it evicts
	// least-recently-used entries (by tombstone). 0 means the default
	// (256 MiB); negative removes the bound.
	MaxBytes int64
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB).
	SegmentBytes int64
	// CompactFraction triggers background compaction once dead bytes
	// (superseded, deleted, evicted records and tombstones) exceed this
	// fraction of the log (default 0.5).
	CompactFraction float64
	// NoSync skips the fsync after each append. Throughput over
	// durability — a crash may lose the most recent writes, but recovery
	// still detects and drops whatever was torn.
	NoSync bool
	// FS is the filesystem seam every I/O operation goes through.
	// nil means the real OS; tests and chaos harnesses pass a
	// fault.Injector.
	FS fault.FS
}

// withDefaults fills in the documented defaults.
func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = 256 << 20
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.5
	}
	if o.FS == nil {
		o.FS = fault.OS()
	}
	return o
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Writes         uint64 `json:"writes"`
	Evictions      uint64 `json:"evictions"`
	CorruptDropped uint64 `json:"corrupt_dropped"`
	Compactions    uint64 `json:"compactions"`
	// IOErrors counts operations that failed with a disk error
	// (append, fsync, read) without implying corruption — the signal
	// the serving tier's circuit breaker consumes.
	IOErrors uint64 `json:"io_errors"`
	// Bytes is the live record bytes (the budget gauge); DeadBytes the
	// reclaimable remainder of the log.
	Bytes     int64 `json:"bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	Entries   int   `json:"entries"`
	Segments  int   `json:"segments"`
}

// segment is one on-disk log file.
type segment struct {
	seq  int64
	path string
	f    fault.File
	size int64 // append offset (== file size after recovery)
}

// indexEntry locates the newest live record of one key.
type indexEntry struct {
	seg    *segment
	off    int64 // record start offset
	size   int64 // full framed record size
	valLen int
	el     *list.Element // position in the recency list (value: key string)
}

// Store is a crash-consistent, append-oriented, bounded on-disk key/value
// store with an in-memory index. Construct with Open; safe for concurrent
// use. Values are immutable once returned (Get hands back a fresh copy).
type Store struct {
	opts Options

	mu        sync.Mutex
	segs      []*segment // ascending seq; last is the active segment
	index     map[string]*indexEntry
	lru       *list.List // front = most recently used; values are keys
	liveBytes int64
	deadBytes int64
	closed    bool

	hits, misses, writes   uint64
	evictions, corruptDrop uint64
	compactions, ioErrors  uint64
	compacting             bool
	compactWG              sync.WaitGroup
}

// Open opens (or creates) the store at opts.Dir, replaying the segment
// log into the in-memory index. Damaged records are dropped — never
// served — and counted in Stats.CorruptDropped; a torn final record is
// truncated away so the next append lands on an intact tail.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no directory")
	}
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:  opts,
		index: make(map[string]*indexEntry),
		lru:   list.New(),
	}
	if err := s.recover(); err != nil {
		s.closeSegments()
		return nil, err
	}
	return s, nil
}

// recover scans the directory: removes orphaned compaction temporaries,
// replays segments in sequence order, and opens (or creates) the active
// segment for append.
func (s *Store) recover() error {
	names, err := s.opts.FS.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var seqs []int64
	for _, de := range names {
		name := de.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A crash between writing and renaming a compaction output:
			// the old segments are still authoritative, the temporary is
			// an aborted artifact — drop it.
			_ = s.opts.FS.Remove(filepath.Join(s.opts.Dir, name))
			s.corruptDrop++
			continue
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil || seq <= 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if err := s.replaySegment(seq); err != nil {
			return err
		}
	}
	if len(s.segs) == 0 {
		if _, err := s.newSegment(1); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment opens one segment file, verifies every record and folds
// the intact ones into the index. The file is truncated back to its last
// intact record, so appends after a crash continue from a clean tail.
func (s *Store) replaySegment(seq int64) error {
	path := filepath.Join(s.opts.Dir, segName(seq))
	f, err := s.opts.FS.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seg := &segment{seq: seq, path: path, f: f}
	data, err := s.opts.FS.ReadFile(path)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	good := int64(headerSize)
	if len(data) < headerSize || string(data[:len(fileMagic)]) != fileMagic ||
		binary.LittleEndian.Uint16(data[len(fileMagic):headerSize]) != fileVer {
		// The header itself is damaged or foreign: nothing in the file
		// can be trusted. Reset it to an empty segment.
		s.corruptDrop++
		if err := s.resetSegment(f); err != nil {
			f.Close()
			return err
		}
		seg.size = int64(headerSize)
		s.segs = append(s.segs, seg)
		return nil
	}

	off := int64(headerSize)
	for {
		rec, n, verdict := parseRecord(data, off)
		if verdict == recEOF {
			break
		}
		if verdict == recTorn {
			// Torn tail or poisoned framing: the rest of the segment is
			// unreadable. Truncate back to the last intact record.
			s.corruptDrop++
			break
		}
		if verdict == recBadBody {
			// Framing intact, payload rotten: skip just this record.
			s.corruptDrop++
			s.deadBytes += n
			off += n
			good = off
			continue
		}
		s.applyRecord(seg, off, n, rec)
		off += n
		good = off
	}
	if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		if err := s.syncFile(f); err != nil {
			f.Close()
			return err
		}
	}
	seg.size = good
	s.segs = append(s.segs, seg)
	return nil
}

// record is one parsed log record.
type record struct {
	typ byte
	key string
	val []byte
}

// parseRecord verdicts.
const (
	recOK      = iota // intact record
	recEOF            // clean end of segment
	recTorn           // truncated or header-corrupt: rest of segment unreadable
	recBadBody        // framing intact, body checksum failed: skip one record
)

// parseRecord reads the record at off, returning its parsed form, its
// framed size, and a verdict. Lengths are never trusted before both the
// header checksum and the remaining file size confirm them, so a corrupt
// count cannot drive an allocation beyond the input's own size.
func parseRecord(data []byte, off int64) (record, int64, int) {
	rest := int64(len(data)) - off
	if rest == 0 {
		return record{}, 0, recEOF
	}
	if rest < recHeadSize {
		return record{}, 0, recTorn
	}
	h := data[off : off+recHeadSize]
	typ := h[0]
	keyLen := int64(binary.LittleEndian.Uint32(h[1:5]))
	valLen := int64(binary.LittleEndian.Uint32(h[5:9]))
	headCRC := binary.LittleEndian.Uint32(h[9:13])
	if crc32.Checksum(h[:9], castagnoli) != headCRC {
		return record{}, 0, recTorn
	}
	if typ != recPut && typ != recTombstone {
		return record{}, 0, recTorn
	}
	if keyLen > maxKeyLen || valLen > maxValLen || (typ == recTombstone && valLen != 0) {
		return record{}, 0, recTorn
	}
	n := recHeadSize + keyLen + valLen + recTailSize
	if rest < n {
		return record{}, 0, recTorn
	}
	body := data[off+recHeadSize : off+recHeadSize+keyLen+valLen]
	bodyCRC := binary.LittleEndian.Uint32(data[off+n-recTailSize : off+n])
	if crc32.Checksum(body, castagnoli) != bodyCRC {
		return record{}, n, recBadBody
	}
	return record{typ: typ, key: string(body[:keyLen]), val: body[keyLen:]}, n, recOK
}

// applyRecord folds one intact record into the index during recovery.
// Later records supersede earlier ones (within a segment by offset,
// across segments by sequence order — which is how a duplicate key across
// segments, e.g. from a crash between a compaction rename and the old
// segments' removal, resolves to the newest value).
func (s *Store) applyRecord(seg *segment, off, n int64, rec record) {
	if old, ok := s.index[rec.key]; ok {
		s.liveBytes -= old.size
		s.deadBytes += old.size
		s.lru.Remove(old.el)
		delete(s.index, rec.key)
	}
	if rec.typ == recTombstone {
		s.deadBytes += n
		return
	}
	s.index[rec.key] = &indexEntry{
		seg:    seg,
		off:    off,
		size:   n,
		valLen: len(rec.val),
		el:     s.lru.PushFront(rec.key),
	}
	s.liveBytes += n
}

// resetSegment truncates a header-corrupt file back to an empty segment.
func (s *Store) resetSegment(f fault.File) error {
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileHeader(f); err != nil {
		return err
	}
	return s.syncFile(f)
}

// writeFileHeader writes the magic + version header at offset 0.
func writeFileHeader(f fault.File) error {
	var h [headerSize]byte
	copy(h[:], fileMagic)
	binary.LittleEndian.PutUint16(h[len(fileMagic):], fileVer)
	if _, err := f.WriteAt(h[:], 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// segName renders a segment file name.
func segName(seq int64) string {
	return segPrefix + strconv.FormatInt(seq, 10) + segSuffix
}

// newSegment creates and opens segment seq as the new active segment.
func (s *Store) newSegment(seq int64) (*segment, error) {
	path := filepath.Join(s.opts.Dir, segName(seq))
	f, err := s.opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		s.ioErrors++
		return nil, fmt.Errorf("store: %w", err)
	}
	// On any failure past the create, remove the partial file so a
	// retry after the disk recovers is not blocked by O_EXCL.
	abort := func(err error) (*segment, error) {
		f.Close()
		_ = s.opts.FS.Remove(path)
		return nil, err
	}
	if err := writeFileHeader(f); err != nil {
		s.ioErrors++
		return abort(err)
	}
	if err := s.syncFile(f); err != nil {
		return abort(err)
	}
	if err := s.syncDir(); err != nil {
		return abort(err)
	}
	seg := &segment{seq: seq, path: path, f: f, size: int64(headerSize)}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// active returns the append segment.
func (s *Store) active() *segment { return s.segs[len(s.segs)-1] }

// appendRecord frames and appends one record to the active segment,
// rotating first if the segment is full, and returns the record's
// location.
func (s *Store) appendRecord(typ byte, key string, val []byte) (*segment, int64, int64, error) {
	n := int64(recHeadSize + len(key) + len(val) + recTailSize)
	seg := s.active()
	if seg.size+n > s.opts.SegmentBytes && seg.size > int64(headerSize) {
		next, err := s.newSegment(seg.seq + 1)
		if err != nil {
			return nil, 0, 0, err
		}
		seg = next
	}
	buf := make([]byte, n)
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(val)))
	binary.LittleEndian.PutUint32(buf[9:13], crc32.Checksum(buf[:9], castagnoli))
	copy(buf[recHeadSize:], key)
	copy(buf[recHeadSize+len(key):], val)
	body := buf[recHeadSize : n-recTailSize]
	binary.LittleEndian.PutUint32(buf[n-recTailSize:], crc32.Checksum(body, castagnoli))
	off := seg.size
	if _, err := seg.f.WriteAt(buf, off); err != nil {
		// A failed or short write may have persisted a prefix past the
		// committed tail. seg.size does not advance, so a later append
		// overwrites it — and recovery would truncate it as torn — but
		// trimming it now (best-effort) keeps the on-disk tail clean.
		s.ioErrors++
		_ = seg.f.Truncate(off)
		return nil, 0, 0, fmt.Errorf("store: append: %w", err)
	}
	if err := s.syncFile(seg.f); err != nil {
		// Not durable: report failure without advancing the tail, same
		// as a failed write (the bytes may or may not have reached the
		// platter; either way recovery handles them).
		_ = seg.f.Truncate(off)
		return nil, 0, 0, err
	}
	seg.size += n
	return seg, off, n, nil
}

// Put stores (or replaces) key's value, appending one fsync'd record.
// Exceeding the live-byte budget evicts least-recently-used entries;
// accumulating enough dead bytes triggers background compaction.
func (s *Store) Put(key string, val []byte) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: invalid key length %d", len(key))
	}
	if len(val) > maxValLen {
		return fmt.Errorf("store: value too large (%d bytes)", len(val))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	seg, off, n, err := s.appendRecord(recPut, key, val)
	if err != nil {
		return err
	}
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
		s.deadBytes += old.size
		s.lru.Remove(old.el)
	}
	s.index[key] = &indexEntry{seg: seg, off: off, size: n, valLen: len(val), el: s.lru.PushFront(key)}
	s.liveBytes += n
	s.writes++
	if err := s.enforceBudget(key); err != nil {
		return err
	}
	s.maybeCompact()
	return nil
}

// Get returns a copy of key's value. The record's body checksum is
// re-verified on every read: damage detected here (bit rot after open)
// is dropped from the index and counted, never served.
func (s *Store) Get(key string) ([]byte, bool) {
	val, ok, _ := s.GetE(key)
	return val, ok
}

// GetE is Get with the I/O error surfaced. A read that fails at the
// device (err != nil) is a miss that keeps the index entry — the
// record may be intact on a disk that is transiently failing, and the
// error is the circuit breaker's signal — while a checksum failure is
// genuine corruption and drops the entry as always.
func (s *Store) GetE(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.index[key]
	if !ok || s.closed {
		s.misses++
		return nil, false, nil
	}
	buf := make([]byte, ent.size)
	if _, err := ent.seg.f.ReadAt(buf, ent.off); err != nil {
		s.ioErrors++
		s.misses++
		return nil, false, fmt.Errorf("store: read: %w", err)
	}
	rec, _, verdict := parseRecord(buf, 0)
	if verdict != recOK || rec.typ != recPut || rec.key != key {
		s.dropDamaged(key, ent)
		return nil, false, nil
	}
	s.hits++
	s.lru.MoveToFront(ent.el)
	out := make([]byte, len(rec.val))
	copy(out, rec.val)
	return out, true, nil
}

// Touch marks key most recently used, exactly as a GetE hit does, without
// reading it: how the tier above says "this entry was in use in memory
// until now". No I/O and no counter; unknown keys and closed stores are
// no-ops.
func (s *Store) Touch(key string) {
	s.mu.Lock()
	if ent, ok := s.index[key]; ok && !s.closed {
		s.lru.MoveToFront(ent.el)
	}
	s.mu.Unlock()
}

// dropDamaged removes a record that failed its read-time verification.
func (s *Store) dropDamaged(key string, ent *indexEntry) {
	s.corruptDrop++
	s.misses++
	s.liveBytes -= ent.size
	s.deadBytes += ent.size
	s.lru.Remove(ent.el)
	delete(s.index, key)
}

// Delete removes key, appending a tombstone so the removal survives
// restart. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	ent, ok := s.index[key]
	if !ok {
		return nil
	}
	return s.deleteLocked(key, ent)
}

// deleteLocked appends the tombstone and unlinks the index entry.
func (s *Store) deleteLocked(key string, ent *indexEntry) error {
	_, _, n, err := s.appendRecord(recTombstone, key, nil)
	if err != nil {
		return err
	}
	s.liveBytes -= ent.size
	s.deadBytes += ent.size + n
	s.lru.Remove(ent.el)
	delete(s.index, key)
	return nil
}

// enforceBudget evicts least-recently-used entries until the live bytes
// fit the budget again. keep (the key just written) is never evicted —
// a single oversized entry simply occupies the whole budget.
func (s *Store) enforceBudget(keep string) error {
	if s.opts.MaxBytes < 0 {
		return nil
	}
	for s.liveBytes > s.opts.MaxBytes {
		oldest := s.lru.Back()
		if oldest == nil {
			return nil
		}
		key := oldest.Value.(string)
		if key == keep {
			return nil
		}
		if err := s.deleteLocked(key, s.index[key]); err != nil {
			return err
		}
		s.evictions++
	}
	return nil
}

// compactFloor is the minimal log size before the dead-fraction trigger
// fires; compacting a few kilobytes is churn, not reclamation.
const compactFloor = 1 << 20

// maybeCompact starts a background compaction when dead bytes outweigh
// the configured fraction of the log. At most one compaction runs at a
// time; it serializes with writers on the store mutex, so the Put that
// tripped the threshold returns immediately and the rewrite happens
// behind it.
func (s *Store) maybeCompact() {
	total := s.liveBytes + s.deadBytes
	if s.compacting || total < compactFloor || float64(s.deadBytes) < s.opts.CompactFraction*float64(total) {
		return
	}
	s.compacting = true
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		defer func() { s.compacting = false }()
		if s.closed {
			return
		}
		_ = s.compactLocked()
	}()
}

// Compact synchronously rewrites the live records into a fresh segment
// and removes the superseded ones. Exposed for tests and operational
// tooling; the store normally compacts itself in the background.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

// compactLocked is the crash-consistent rewrite: stream every live
// record into seg-<next>.log.tmp, fsync, rename into place, then remove
// the older segments. A crash before the rename leaves the old segments
// authoritative (the temporary is dropped on the next open); a crash
// after it leaves duplicates that recovery resolves newest-wins.
func (s *Store) compactLocked() error {
	nextSeq := s.active().seq + 1
	tmpPath := filepath.Join(s.opts.Dir, segName(nextSeq)+tmpSuffix)
	tmp, err := s.opts.FS.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.ioErrors++
		return fmt.Errorf("store: compact: %w", err)
	}
	cleanup := func() {
		s.ioErrors++
		tmp.Close()
		s.opts.FS.Remove(tmpPath)
	}
	if err := writeFileHeader(tmp); err != nil {
		cleanup()
		return err
	}

	// Copy live records in recency order (most recent first ends up
	// *last* so that replay order reconstructs the same LRU order).
	type moved struct {
		key string
		ent *indexEntry
		off int64
		n   int64
	}
	var moves []moved
	off := int64(headerSize)
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		key := el.Value.(string)
		ent := s.index[key]
		buf := make([]byte, ent.size)
		if _, err := ent.seg.f.ReadAt(buf, ent.off); err != nil {
			s.dropDamaged(key, ent)
			continue
		}
		if _, _, verdict := parseRecord(buf, 0); verdict != recOK {
			s.dropDamaged(key, ent)
			continue
		}
		if _, err := tmp.WriteAt(buf, off); err != nil {
			cleanup()
			return fmt.Errorf("store: compact: %w", err)
		}
		moves = append(moves, moved{key: key, ent: ent, off: off, n: ent.size})
		off += ent.size
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: compact: %w", err)
	}
	newPath := filepath.Join(s.opts.Dir, segName(nextSeq))
	if err := s.opts.FS.Rename(tmpPath, newPath); err != nil {
		cleanup()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.syncDir(); err != nil {
		// The rename happened but its durability is unknown. Leave the
		// old segments in place: replay resolves the duplicate keys
		// newest-wins whichever state the crash exposes.
		tmp.Close()
		return err
	}

	// The rename is the commit point: swap the index over, then drop the
	// superseded segments.
	f, err := s.opts.FS.OpenFile(newPath, os.O_RDWR, 0o644)
	if err != nil {
		s.ioErrors++
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	tmp.Close()
	seg := &segment{seq: nextSeq, path: newPath, f: f, size: off}
	old := s.segs
	s.segs = []*segment{seg}
	for _, mv := range moves {
		mv.ent.seg = seg
		mv.ent.off = mv.off
	}
	for _, o := range old {
		o.f.Close()
		s.opts.FS.Remove(o.path)
	}
	s.deadBytes = 0
	s.compactions++
	return nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:           s.hits,
		Misses:         s.misses,
		Writes:         s.writes,
		Evictions:      s.evictions,
		CorruptDropped: s.corruptDrop,
		Compactions:    s.compactions,
		IOErrors:       s.ioErrors,
		Bytes:          s.liveBytes,
		DeadBytes:      s.deadBytes,
		Entries:        len(s.index),
		Segments:       len(s.segs),
	}
}

// Close flushes and closes the segment files. The store is unusable
// afterwards; a pending background compaction is waited for.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSegments()
	return nil
}

// closeSegments closes every open segment handle.
func (s *Store) closeSegments() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
}

// syncFile fsyncs one file unless NoSync. An fsync failure is a disk
// error the caller must surface — data that didn't reach the platter
// is not durable, and swallowing it would hide a failing device from
// the circuit breaker.
func (s *Store) syncFile(f fault.File) error {
	if s.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		s.ioErrors++
		return fmt.Errorf("store: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs the store directory (making creates and renames
// durable) unless NoSync.
func (s *Store) syncDir() error {
	if s.opts.NoSync {
		return nil
	}
	if err := s.opts.FS.SyncDir(s.opts.Dir); err != nil {
		s.ioErrors++
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

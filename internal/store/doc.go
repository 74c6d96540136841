// Package store implements moqod's disk-backed frontier store: a
// crash-consistent, append-oriented key/value log that persists marshaled
// FrontierSnapshots (moqo.FrontierSnapshot.MarshalBinary) across process
// restarts, so a restarted service begins warm — the first slice of the
// ROADMAP's distributed-fleet direction. The expensive artifact of the
// paper's approximation schemes (Trummer & Koch, SIGMOD 2014) is the
// one-time dynamic program that builds a Pareto frontier; the in-memory
// frontier tier (internal/cache) makes re-serving it nearly free until
// the process dies. This package makes it survive the death.
//
// # On-disk layout
//
// A store directory holds numbered segment files (seg-1.log, seg-2.log,
// …), each a short header (magic + format version) followed by
// appended records. One record frames one put or delete:
//
//	u8  type      1 = put, 2 = tombstone (delete)
//	u32 keyLen
//	u32 valLen    0 for tombstones
//	u32 headCRC   CRC-32C over the 9 header bytes above
//	    key
//	    value
//	u32 bodyCRC   CRC-32C over key ∥ value
//
// Records are append-only and fsync'd (unless Options.NoSync); a key
// written twice is superseded by its later record, and the newest record
// for a key — across all segments, segments ordered by sequence number —
// always wins. Compaction rewrites the live records into a fresh
// highest-numbered segment via write-temp-then-rename, then removes the
// superseded segments, so a crash at any instant leaves either the old
// segments, or the old segments plus a complete new one — never a
// half-visible state.
//
// # Recovery
//
// Open replays every segment in sequence order, verifying both checksums
// of every record. Damage is dropped, never served, and counted in
// Stats.CorruptDropped:
//
//   - a torn tail record (the crash-mid-append case) fails its header or
//     body checksum, or runs past the end of the file: the segment is
//     truncated back to the last intact record;
//   - a record whose header is intact but whose body checksum fails (bit
//     rot) is skipped individually — its framing is trusted, so the
//     records after it still load;
//   - a record whose header checksum fails poisons the rest of its
//     segment (the framing itself is untrustworthy): the segment is
//     truncated at that point;
//   - orphaned compaction temporaries (*.tmp — a crash between writing
//     and renaming) are deleted.
//
// Get re-verifies the body checksum on every read, so bit rot after open
// is also detected, dropped and counted rather than served.
//
// # Budget and compaction
//
// The store mirrors the in-memory frontier tier's boundedness: a live-byte
// budget (Options.MaxBytes) evicts least-recently-used entries by
// tombstone when exceeded, and background compaction reclaims the space
// of superseded, deleted and evicted records once they outweigh
// Options.CompactFraction of the log.
//
// Recency is kept in memory only. A Get hit and a Touch — the tier
// above saying "this entry was in use in memory until now" — move the
// entry to the front of the same list, and neither writes: the log
// already holds the record. Open rebuilds the order from write order
// (compaction copies live records least recent first, so a compacted log
// replays into the order it had). What a restart forgets is only which
// entries were read or touched since their last write.
//
// The store knows nothing of snapshots — keys are moqo FrontierKeys and
// values are opaque bytes. Invalidation on catalog change needs no
// machinery here: the FrontierKey embeds catalog.Fingerprint and the
// cache-key format version, so a changed catalog simply never looks a
// stale entry up again, and the budget/compaction cycle eventually
// reclaims it.
package store

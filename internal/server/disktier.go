package server

import (
	"sync/atomic"

	"moqo"
	"moqo/internal/fault"
	"moqo/internal/store"
)

// diskTier is the server's only way to the disk: the frontier store
// behind its circuit breaker, speaking snapshots instead of bytes.
// Snapshots are written through on DP completion, consulted on
// frontier-tier misses before a cold DP runs, and touched when the memory
// tier evicts them. Keys are FrontierKeys, which embed the catalog
// fingerprint and key-format version — so a catalog or version change
// invalidates stale disk entries by never looking them up.
//
// Get and Put ask the breaker first and report their outcome to it:
// repeated disk errors trip it and serving degrades to memory-only
// instead of paying the failing disk's latency on every request. A nil
// *diskTier is the disabled tier: every method is a no-op or a miss.
type diskTier struct {
	st      *store.Store
	breaker *fault.Breaker

	skipped       atomic.Uint64 // operations not attempted: breaker open
	decodeDropped atomic.Uint64 // entries with good checksums that failed decoding or key verification
}

// openDiskTier opens the store under opts.StorePath; an empty path is the
// disabled (nil) tier.
func openDiskTier(opts Options) (*diskTier, error) {
	if opts.StorePath == "" {
		return nil, nil
	}
	st, err := store.Open(store.Options{
		Dir:      opts.StorePath,
		MaxBytes: opts.StoreMaxBytes,
		NoSync:   opts.StoreNoSync,
		FS:       opts.StoreFS,
	})
	if err != nil {
		return nil, err
	}
	return &diskTier{st: st, breaker: fault.NewBreaker(fault.BreakerConfig{
		Threshold: opts.BreakerThreshold,
		Cooldown:  opts.BreakerCooldown,
	})}, nil
}

// allow reports whether the device may be touched right now. Skipped
// operations are counted — the "serving memory-only" signal on /metrics.
func (d *diskTier) allow() bool {
	if d == nil {
		return false
	}
	if !d.breaker.Allow() {
		d.skipped.Add(1)
		return false
	}
	return true
}

// result feeds one device operation's outcome to the breaker.
func (d *diskTier) result(err error) {
	if err != nil {
		d.breaker.Failure()
	} else {
		d.breaker.Success()
	}
}

// release hands back an allow that did no I/O: it proves nothing about
// the device, and reporting it as a success would reset the failure
// streak (or close a half-open breaker) without having touched the disk.
func (d *diskTier) release() { d.breaker.Cancel() }

// Put marshals a snapshot and appends it to the store.
func (d *diskTier) Put(snap *moqo.FrontierSnapshot) {
	if !d.allow() {
		return
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		d.release()
		return
	}
	d.result(d.st.Put(snap.Key(), data))
}

// Get returns the snapshot stored under fkey, or nil. Entries that fail
// decoding or key verification — version skew, or damage the store's
// checksums cannot see — are deleted and counted, never served. A
// device-level read error is a miss that feeds the breaker (the entry
// survives in the store's index for after the disk recovers).
func (d *diskTier) Get(fkey string) *moqo.FrontierSnapshot {
	if !d.allow() {
		return nil
	}
	data, ok, err := d.st.GetE(fkey)
	if err == nil && !ok {
		d.release() // index miss: the device was never touched
		return nil
	}
	d.result(err)
	if err != nil {
		return nil
	}
	snap, err := moqo.UnmarshalFrontierSnapshot(data)
	if err != nil || snap.Key() != fkey {
		d.decodeDropped.Add(1)
		_ = d.st.Delete(fkey) // best effort: a failed tombstone leaves an entry that fails decoding again
		return nil
	}
	return snap
}

// Touch tells the store that key was in use in memory until now (the
// frontier tier just evicted it). The log already holds the record from
// its write-through, so this is a recency bump with no I/O — nothing for
// the breaker to permit.
func (d *diskTier) Touch(key string) {
	if d != nil {
		d.st.Touch(key)
	}
}

// Close syncs and closes the store; safe more than once.
func (d *diskTier) Close() error {
	if d == nil {
		return nil
	}
	return d.st.Close()
}

// Breaker returns the breaker's stats: non-nil exactly when the tier
// exists. Unlike Stats it does not take the store's mutex, which a Put
// holds across an fsync: liveness probes must not wait on the disk.
func (d *diskTier) Breaker() *fault.BreakerStats {
	if d == nil {
		return nil
	}
	st := d.breaker.Stats()
	return &st
}

// Stats is the tier's one metrics value: the store's counters, the
// tier's own and the breaker's state. All-zero when disabled.
func (d *diskTier) Stats() FrontierStoreMetrics {
	bst := d.Breaker()
	if bst == nil {
		return FrontierStoreMetrics{}
	}
	st := d.st.Stats()
	return FrontierStoreMetrics{
		Enabled:        true,
		Hits:           st.Hits,
		Misses:         st.Misses,
		Writes:         st.Writes,
		Bytes:          st.Bytes,
		Evictions:      st.Evictions,
		CorruptDropped: st.CorruptDropped + d.decodeDropped.Load(),
		Compactions:    st.Compactions,
		Entries:        st.Entries,
		IOErrors:       st.IOErrors,
		Skipped:        d.skipped.Load(),
		Breaker:        bst,
	}
}

package server

import (
	"context"
	"sync/atomic"

	"moqo"
	"moqo/internal/cache"
	"moqo/internal/tenant"
)

// tiers answers resolved requests with results; rendering them on the wire
// is the caller's (toResponse). EXA, RTA and IRA walk frontier tier → disk
// store → cold dynamic program, the same for every weight vector because
// the Pareto frontier never looks at weights (paper §3), so an exact repeat
// is a re-weight rendered with its own query; the single-objective
// baselines always run cold. It owns the memory cache, the disk tier, the
// eviction hook and the tier counters; the one thing it asks of its owner
// is a cold-DP slot.
type tiers struct {
	// frontier is the snapshot tier, keyed by moqo.Resolved.FrontierKey
	// (nil when disabled); a hit serves the request by a SelectBest scan
	// over the cached snapshot (moqo.Resolved.Reoptimize).
	frontier *cache.Cache[frontierEntry]
	// disk persists the frontier tier's snapshots across restarts (nil
	// when disabled; every method is nil-safe): the store, its breaker and
	// the snapshot codec are reachable only through it.
	disk *diskTier

	// tenants attributes cached bytes to the tenant whose request
	// populated them — accounting only, never part of a key or an answer.
	tenants *tenant.Registry
	// acquire waits for a cold-DP slot for the tenant; the returned release
	// must be called when the dynamic program finishes. This is the only
	// place tenancy can delay work: every cache, frontier and disk hit
	// bypasses it entirely.
	acquire func(ctx context.Context, ten string) (release func(), err error)

	// reweightServed counts requests answered from a cached frontier
	// snapshot (hit or coalesced on the frontier tier) rather than a DP.
	reweightServed atomic.Uint64
	// snapshotBytes gauges the estimated bytes of snapshots currently in
	// the frontier tier (adds on store, subtracts via the eviction hook).
	snapshotBytes atomic.Int64
}

// newTiers builds the tiers opts enables, opening the disk store when
// Options.StorePath is set.
func newTiers(opts Options, tenants *tenant.Registry, acquire func(context.Context, string) (func(), error)) (*tiers, error) {
	t := &tiers{tenants: tenants, acquire: acquire}
	if opts.CacheCapacity < 0 || opts.FrontierCacheCapacity <= 0 {
		return t, nil
	}
	t.frontier = cache.New[frontierEntry](opts.FrontierCacheCapacity, opts.CacheShards)
	disk, err := openDiskTier(opts)
	if err != nil {
		return nil, err
	}
	t.disk = disk
	t.frontier.OnEvict(func(key string, ent frontierEntry, reason cache.EvictReason) {
		size := int64(ent.snap.SizeBytes())
		t.snapshotBytes.Add(-size)
		if ent.ten != "" {
			tenants.CacheEvict(ent.ten, size, reason == cache.Evicted)
		}
		if reason == cache.Evicted {
			// Touch, not rewrite: the store already holds the
			// snapshot's bytes from its write-through, so all the disk
			// tier needs to learn is that the shape was in use until
			// now — hot shapes then do not age out of the disk budget
			// while they sit in memory. A Replaced entry is superseded
			// by a finer snapshot the caller writes through itself.
			t.disk.Touch(key)
		}
	})
	return t, nil
}

// Close syncs and closes the disk store; safe without one and more than once.
func (t *tiers) Close() error { return t.disk.Close() }

// Metrics snapshots the frontier tier's and the disk tier's counters
// (all-zero for a disabled tier).
func (t *tiers) Metrics() (frontier FrontierCacheMetrics, disk FrontierStoreMetrics) {
	if t.frontier != nil {
		st := t.frontier.Stats()
		frontier = FrontierCacheMetrics{
			CacheMetrics: CacheMetrics{
				Enabled:   true,
				Hits:      st.Hits,
				Misses:    st.Misses,
				Coalesced: st.Coalesced,
				Evictions: st.Evictions,
				Entries:   st.Entries,
				Capacity:  st.Capacity,
				HitRatio:  st.HitRatio(),
			},
			ReweightServed: t.reweightServed.Load(),
			SnapshotBytes:  t.snapshotBytes.Load(),
		}
	}
	return frontier, t.disk.Stats()
}

// Serve answers one resolved request — a single /optimize or one batch
// member. EXA, RTA and IRA go through the frontier tier; the baselines, and
// any request with no_cache (noCache), run cold.
func (t *tiers) Serve(ctx context.Context, req *moqo.Resolved, ten string, noCache bool) (*moqo.Result, error) {
	if noCache || !req.ReusableFrontier() {
		return t.serveCold(ctx, req, ten)
	}
	return t.serveFrontier(ctx, req, ten)
}

// frontierEntry is one frontier-tier record: the snapshot, and nothing
// rendered from it — a response renders the frontier from its own result,
// and only when its request asked for it.
type frontierEntry struct {
	snap *moqo.FrontierSnapshot
	// ten is the tenant whose request populated the entry — partition
	// accounting only, never part of the key or the answer.
	ten string
}

// newFrontierEntry builds the frontier-tier record for a snapshot about
// to enter the tier and accounts its arrival (bytes gauge, tenant
// attribution); the tier's eviction hook accounts the departure.
func (t *tiers) newFrontierEntry(sn *moqo.FrontierSnapshot, ten string) frontierEntry {
	size := int64(sn.SizeBytes())
	t.snapshotBytes.Add(size)
	t.tenants.CacheAdd(ten, size)
	return frontierEntry{snap: sn, ten: ten}
}

// serveFrontier serves an EXA, RTA or IRA request through the frontier tier
// (cold when it is disabled): if a snapshot for the request's FrontierKey is
// cached (or being computed by a concurrent request for the same shape — the
// tier's single-flight coalesces them), the request is answered by a
// SelectBest scan over the snapshot in microseconds. Otherwise this caller
// fills the tier, and its snapshot serves every later request for the shape.
func (t *tiers) serveFrontier(ctx context.Context, req *moqo.Resolved, ten string) (*moqo.Result, error) {
	if t.frontier == nil {
		return t.serveCold(ctx, req, ten)
	}
	fkey := req.FrontierKey()
	var lead *moqo.Result
	ent, _, err := t.frontier.Do(ctx, fkey, func(cctx context.Context) (frontierEntry, bool, error) {
		filled, res, err := t.fillFrontier(cctx, req, fkey, ten)
		lead = res
		return filled, filled.snap != nil, err
	})
	if err != nil {
		return nil, err
	}
	if lead != nil {
		// This caller ran the cold DP (leader, or a retrier after a
		// non-shareable outcome): answer from its own full result.
		return lead, nil
	}
	if ent.snap == nil {
		return t.serveCold(ctx, req, ten)
	}
	res, newSnap, err := req.Reoptimize(ctx, ent.snap)
	if err != nil {
		return nil, err
	}
	t.reweightServed.Add(1)
	if newSnap != nil && newSnap != ent.snap {
		// A seeded IRA refined past the cached snapshot: keep the finer
		// frontier (Put's eviction hook releases the replaced one). The
		// store gets it too, superseding its seed on disk.
		t.frontier.Put(fkey, t.newFrontierEntry(newSnap, ten))
		t.disk.Put(newSnap)
	}
	return res, nil
}

// fillFrontier produces the frontier-tier entry for a memory miss: from
// the disk store if it holds the shape — the warm-restart fast path, served
// exactly like a memory hit — and otherwise by the cold dynamic program,
// whose result it hands back as lead. A degraded run yields no snapshot
// and an empty entry, which is stored in neither tier nor on disk.
func (t *tiers) fillFrontier(ctx context.Context, req *moqo.Resolved, fkey, ten string) (ent frontierEntry, lead *moqo.Result, err error) {
	if sn := t.disk.Get(fkey); sn != nil {
		return t.newFrontierEntry(sn, ten), nil, nil
	}
	release, err := t.acquire(ctx, ten)
	if err != nil {
		return frontierEntry{}, nil, err
	}
	res, sn, err := req.OptimizeSnapshot(ctx)
	release()
	if err != nil || sn == nil {
		return frontierEntry{}, res, err
	}
	// Write through on DP completion: one appended record per cold DP,
	// so a restart replays the tier from disk instead of re-running
	// dynamic programs.
	t.disk.Put(sn)
	return t.newFrontierEntry(sn, ten), res, nil
}

// serveCold runs one optimization, under a cold-DP slot.
func (t *tiers) serveCold(ctx context.Context, req *moqo.Resolved, ten string) (*moqo.Result, error) {
	release, err := t.acquire(ctx, ten)
	if err != nil {
		return nil, err
	}
	defer release()
	return req.Optimize(ctx)
}

package moqo

import (
	"context"
	"encoding/binary"
	"fmt"

	"moqo/internal/core"
)

// FrontierSnapshot is a compact, immutable, serializable copy of the
// (α-approximate) Pareto frontier of one optimization run, bound to the
// weight/bound-free request fingerprint (FrontierKey) it was computed
// under. The frontier is independent of the user's weights and bounds —
// the paper's §3 observation, and the scenario its Figure 3 motivates:
// users iteratively re-weight the same query during plan negotiation.
// A snapshot therefore answers any later weight or bound change on the
// same FrontierKey via ReoptimizeContext: a SelectBest scan plus one
// plan materialization, microseconds instead of a dynamic program.
//
// Reuse is algorithm-aware:
//
//   - EXA snapshots hold the exact Pareto set: any weights and bounds are
//     answered exactly, bit-for-bit as a cold run would.
//   - RTA snapshots hold an αU-approximate set whose pruning never looked
//     at weights, so Theorem 3's guarantee survives re-weighting: the
//     scan answer is bit-for-bit the cold RTA answer at the new weights.
//   - IRA snapshots record the final refinement precision; a re-weighted
//     or re-bounded IRA request seeds its refinement from the snapshot
//     (often answering without any DP) and keeps cold IRA's guarantee.
//
// Snapshots are never produced for degraded (timed-out) runs or for the
// single-objective baselines (Selinger, WeightedSum), whose results are
// weight-specific.
//
// MarshalBinary/UnmarshalFrontierSnapshot give snapshots a versioned
// binary form, so they can persist to disk or ship between moqod
// replicas; the embedded FrontierKey keeps a deserialized snapshot
// verifiable against the requests it may serve.
type FrontierSnapshot struct {
	core *core.FrontierSnapshot
	key  string
	alg  Algorithm
}

// Key returns the FrontierKey the snapshot was computed under.
func (s *FrontierSnapshot) Key() string { return s.key }

// Algorithm returns the (resolved) algorithm that produced the snapshot.
func (s *FrontierSnapshot) Algorithm() Algorithm { return s.alg }

// Len returns the number of frontier plans in the snapshot.
func (s *FrontierSnapshot) Len() int { return s.core.Len() }

// SetAlpha returns the set-level approximation precision of the frontier
// (1 = exact Pareto set).
func (s *FrontierSnapshot) SetAlpha() float64 { return s.core.SetAlpha() }

// SizeBytes estimates the snapshot's in-memory footprint — the figure
// the moqod frontier-cache metrics aggregate into snapshot_bytes.
func (s *FrontierSnapshot) SizeBytes() int {
	return s.core.SizeBytes() + len(s.key)
}

// Objectives returns the active objectives of the originating run.
func (s *FrontierSnapshot) Objectives() []Objective {
	return s.core.Objectives().IDs()
}

// FrontierVectors returns the frontier's cost vectors in canonical order
// — the same order (and the same vectors) Result.FrontierVectors reports
// for the run the snapshot was extracted from. It lets a caller holding
// only a snapshot (say, one deserialized from a disk store) render the
// frontier without materializing any plans.
func (s *FrontierSnapshot) FrontierVectors() []CostVector {
	return s.core.Frontier.Frontier()
}

// snapshotWireMagic and snapshotWireVersion frame the moqo-level binary
// envelope (key + algorithm) around the core frontier payload.
const (
	snapshotWireMagic   = "MOQS"
	snapshotWireVersion = 1
)

// MarshalBinary encodes the snapshot — envelope (version, FrontierKey,
// algorithm) plus the core frontier payload — in a stable, versioned
// little-endian format. The round trip is exact: a decoded snapshot
// serves the same answers as the original (round-trip tested).
func (s *FrontierSnapshot) MarshalBinary() ([]byte, error) {
	payload, err := s.core.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(snapshotWireMagic)+2+1+4+len(s.key)+len(payload))
	buf = append(buf, snapshotWireMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotWireVersion)
	buf = append(buf, byte(s.alg))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.key)))
	buf = append(buf, s.key...)
	buf = append(buf, payload...)
	return buf, nil
}

// UnmarshalFrontierSnapshot decodes a snapshot encoded by MarshalBinary,
// validating the envelope, the algorithm, and the core payload (format
// version, array alignment, and that every plan reference resolves).
func UnmarshalFrontierSnapshot(data []byte) (*FrontierSnapshot, error) {
	head := len(snapshotWireMagic) + 2 + 1 + 4
	if len(data) < head || string(data[:4]) != snapshotWireMagic {
		return nil, fmt.Errorf("moqo: not a frontier snapshot")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != snapshotWireVersion {
		return nil, fmt.Errorf("moqo: unsupported frontier snapshot version %d", v)
	}
	alg := Algorithm(data[6])
	switch alg {
	case AlgoEXA, AlgoRTA, AlgoIRA:
	default:
		return nil, fmt.Errorf("moqo: frontier snapshot with non-reusable algorithm %v", alg)
	}
	keyLen := int(binary.LittleEndian.Uint32(data[7:11]))
	if keyLen < 0 || len(data)-head < keyLen {
		return nil, fmt.Errorf("moqo: corrupt frontier snapshot: key length %d exceeds payload", keyLen)
	}
	key := string(data[head : head+keyLen])
	cs, err := core.UnmarshalFrontierSnapshot(data[head+keyLen:])
	if err != nil {
		return nil, fmt.Errorf("moqo: %w", err)
	}
	return &FrontierSnapshot{core: cs, key: key, alg: alg}, nil
}

// OptimizeSnapshot is OptimizeSnapshotContext with a background context.
func OptimizeSnapshot(req Request) (*Result, *FrontierSnapshot, error) {
	return OptimizeSnapshotContext(context.Background(), req)
}

// OptimizeSnapshotContext solves one MOQO problem exactly like
// OptimizeContext and additionally extracts the run's FrontierSnapshot:
// Resolve, then Resolved.OptimizeSnapshot.
func OptimizeSnapshotContext(ctx context.Context, req Request) (*Result, *FrontierSnapshot, error) {
	r, err := req.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return r.OptimizeSnapshot(ctx)
}

// OptimizeSnapshot solves the resolved problem exactly like Optimize and
// additionally extracts the run's FrontierSnapshot — the unit a frontier
// cache stores under FrontierKey. The snapshot is nil (with a valid
// Result) when the run has no reusable frontier: a degraded (timed-out)
// run, or a single-objective baseline algorithm.
func (r *Resolved) OptimizeSnapshot(ctx context.Context) (*Result, *FrontierSnapshot, error) {
	res, snap, err := r.run(ctx)
	if err != nil || snap == nil {
		return res, nil, err
	}
	return res, &FrontierSnapshot{core: snap, key: r.FrontierKey(), alg: r.alg}, nil
}

// ReoptimizeContext answers a request from a cached FrontierSnapshot:
// Resolve, then Resolved.Reoptimize.
func ReoptimizeContext(ctx context.Context, req Request, snap *FrontierSnapshot) (*Result, *FrontierSnapshot, error) {
	r, err := req.Resolve()
	if err != nil {
		return nil, nil, err
	}
	return r.Reoptimize(ctx, snap)
}

// Reoptimize answers the resolved request from a cached FrontierSnapshot —
// the re-weight/re-bound fast path. The request must have the FrontierKey
// the snapshot was computed under (same catalog version, join graph,
// algorithm, alpha, objectives, precisions, DOP, sampling and cost-model
// calibration; only weights and bounds may differ), or an error is
// returned and the caller should fall back to a cold optimize.
//
// For EXA and RTA the answer is a SelectBest scan over the snapshot plus
// one plan materialization — no dynamic program runs, and the result is
// bit-for-bit the one a cold run at the new weights/bounds would return
// (plan, cost vector, frontier; the differential tests pin this). For
// IRA the snapshot seeds the refinement loop (core.IRASeededContext):
// when the Theorem 6 stopping condition already holds over the snapshot
// the answer is again a pure scan; otherwise refinement continues from
// the snapshot's precision under ctx, with cold IRA's guarantee either
// way.
//
// The returned snapshot is the one to keep cached: the input snapshot,
// or — when a seeded IRA refined further — a fresh, finer one.
func (r *Resolved) Reoptimize(ctx context.Context, snap *FrontierSnapshot) (*Result, *FrontierSnapshot, error) {
	if snap == nil || snap.core == nil {
		return nil, nil, fmt.Errorf("moqo: nil frontier snapshot")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if r.FrontierKey() != snap.key {
		return nil, nil, fmt.Errorf("moqo: frontier snapshot does not match the request (keys differ)")
	}
	if r.alg != snap.alg {
		return nil, nil, fmt.Errorf("moqo: frontier snapshot algorithm %v does not match resolved %v", snap.alg, r.alg)
	}

	var res core.Result
	var err error
	outSnap := snap
	switch r.alg { // a snapshot's algorithm is one of these three
	case AlgoEXA, AlgoRTA:
		res, err = core.SelectFromSnapshot(snap.core, r.w, r.b)
	case AlgoIRA:
		res, err = core.IRASeededContext(ctx, r.model(), r.w, r.b, r.opts, snap.core)
		if err == nil && res.Snapshot != nil && res.Snapshot != snap.core {
			// The seeded refinement produced a finer frontier; hand it back
			// for the cache to replace the seed with.
			outSnap = &FrontierSnapshot{core: res.Snapshot, key: snap.key, alg: r.alg}
		}
	}
	if err != nil {
		return nil, nil, err
	}

	out, err := r.newResult(res)
	if err != nil {
		return nil, nil, err
	}
	return out, outSnap, nil
}

// Reoptimize is ReoptimizeContext with a background context. For EXA and
// RTA snapshots no dynamic program can run, so the call completes in
// microseconds regardless; only seeded IRA refinement can take longer
// (bound it with a context deadline through ReoptimizeContext).
func Reoptimize(req Request, snap *FrontierSnapshot) (*Result, *FrontierSnapshot, error) {
	return ReoptimizeContext(context.Background(), req, snap)
}

package fault

import (
	"errors"
	"fmt"
	"io/fs"
	"sync/atomic"
	"syscall"
)

// Operation classes. Each class keeps its own operation counter, so a
// fault pinned to "the 3rd write" is independent of how many reads or
// syncs interleave with it.
const (
	opWrite = iota
	opRead
	opSync
	opOpen
	opRename
	numOps
)

var opNames = [numOps]string{"write", "read", "sync", "open", "rename"}

// InjectedError marks an error as injected (never a real disk fault).
// It unwraps to the modelled errno — syscall.ENOSPC or syscall.EIO —
// so errors.Is sees the same thing it would on real hardware.
type InjectedError struct {
	Op  string // operation class ("write", "sync", ...)
	N   uint64 // 1-based index of the operation within its class
	Err error  // the modelled errno
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s error at op %d: %v", e.Op, e.N, e.Err)
}

func (e *InjectedError) Unwrap() error { return e.Err }

// IsInjected reports whether err (or anything it wraps) was produced
// by an Injector. Chaos tests use it to tell injected faults apart
// from real bugs.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// Config describes a deterministic fault schedule. All probabilities
// are in [0,1] and are evaluated independently per operation from
// (Seed, class, per-class op index) — never from a shared RNG stream —
// so the schedule is identical under any goroutine interleaving.
type Config struct {
	// Seed drives every injection decision.
	Seed uint64

	// Per-class fault probabilities.
	PWriteErr  float64
	PReadErr   float64
	PSyncErr   float64
	PRenameErr float64

	// Of the injected write faults, the fraction modelled as ENOSPC
	// (the rest are EIO).
	PENOSPC float64
	// Of the injected write faults, the fraction that persist a prefix
	// of the buffer before failing (a short write).
	PShortWrite float64

	// FailWriteAt fails exactly the Nth WriteAt (1-based) with ENOSPC;
	// ShortWriteAt persists half the buffer of the Nth WriteAt and then
	// fails with EIO. 0 disables. These override the probabilistic
	// schedule for that operation.
	FailWriteAt  uint64
	ShortWriteAt uint64

	// FailTruncate fails every Truncate with EIO, so a caller's
	// best-effort cleanup after a failed write leaves the partial
	// bytes on disk — the state a crash would expose.
	FailTruncate bool
}

// Injector wraps an inner FS and injects faults per its Config.
// Safe for concurrent use.
type Injector struct {
	inner FS
	cfg   Config

	dead     atomic.Bool
	ops      [numOps]atomic.Uint64 // operations seen per class
	injected [numOps]atomic.Uint64 // faults injected per class
}

// NewInjector wraps inner (nil means the real OS) with the fault
// schedule in cfg.
func NewInjector(inner FS, cfg Config) *Injector {
	if inner == nil {
		inner = OS()
	}
	return &Injector{inner: inner, cfg: cfg}
}

// SetDead flips the whole disk into (or out of) a fail-everything
// mode: every subsequent operation returns EIO. Models a fully failed
// device.
func (in *Injector) SetDead(dead bool) { in.dead.Store(dead) }

// Counters is a snapshot of per-class operation and injection counts.
type Counters struct {
	Ops      map[string]uint64 `json:"ops"`
	Injected map[string]uint64 `json:"injected"`
}

// Counters snapshots how many operations ran and how many faults were
// injected, per class.
func (in *Injector) Counters() Counters {
	c := Counters{Ops: make(map[string]uint64, numOps), Injected: make(map[string]uint64, numOps)}
	for i := 0; i < numOps; i++ {
		c.Ops[opNames[i]] = in.ops[i].Load()
		c.Injected[opNames[i]] = in.injected[i].Load()
	}
	return c
}

// mix is splitmix64's finalizer: a high-quality 64-bit mixing function.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll answers the deterministic question "does fault `salt` fire on
// the nth operation of class `class`?" as a pure function of the seed.
func (in *Injector) roll(class, salt, n uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	r := mix(in.cfg.Seed ^ mix(class<<32|salt<<24|n))
	return float64(r>>11)/(1<<53) < p
}

// begin records one operation of class c and returns the op's 1-based
// index plus a non-nil error if the disk is dead and the op must fail
// before reaching the inner FS.
func (in *Injector) begin(c int) (uint64, error) {
	n := in.ops[c].Add(1)
	if in.dead.Load() {
		in.injected[c].Add(1)
		return n, &InjectedError{Op: opNames[c], N: n, Err: syscall.EIO}
	}
	return n, nil
}

// fail constructs the injected error for class c, op n.
func (in *Injector) fail(c int, n uint64, errno error) error {
	in.injected[c].Add(1)
	return &InjectedError{Op: opNames[c], N: n, Err: errno}
}

// classP returns the configured probability for class c (none for
// opens, which fail only on a dead disk).
func (in *Injector) classP(c int) float64 {
	switch c {
	case opWrite:
		return in.cfg.PWriteErr
	case opRead:
		return in.cfg.PReadErr
	case opSync:
		return in.cfg.PSyncErr
	case opRename:
		return in.cfg.PRenameErr
	}
	return 0
}

// simple runs the common pre-check for a non-write class: dead disk,
// then the class's probabilistic fault.
func (in *Injector) simple(c int) error {
	n, err := in.begin(c)
	if err != nil {
		return err
	}
	if in.roll(uint64(c), 1, n, in.classP(c)) {
		return in.fail(c, n, syscall.EIO)
	}
	return nil
}

// --- FS implementation ---

func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := in.simple(opOpen); err != nil {
		return nil, err
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injFile{inner: f, in: in}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err := in.simple(opRead); err != nil {
		return nil, err
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	// Directory listing only happens at recovery; dead-disk still
	// applies, the probabilistic schedule does not.
	if in.dead.Load() {
		return nil, &InjectedError{Op: "read", N: 0, Err: syscall.EIO}
	}
	return in.inner.ReadDir(name)
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	if in.dead.Load() {
		return &InjectedError{Op: "write", N: 0, Err: syscall.EIO}
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) Remove(name string) error {
	if in.dead.Load() {
		return &InjectedError{Op: "write", N: 0, Err: syscall.EIO}
	}
	return in.inner.Remove(name)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.simple(opRename); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) SyncDir(name string) error {
	if err := in.simple(opSync); err != nil {
		return err
	}
	return in.inner.SyncDir(name)
}

// injFile wraps one open file with the injector's write/read/sync
// schedule.
type injFile struct {
	inner File
	in    *Injector
}

func (f *injFile) WriteAt(p []byte, off int64) (int, error) {
	in := f.in
	n, err := in.begin(opWrite)
	if err != nil {
		return 0, err
	}
	// Pinned faults take precedence over the probabilistic schedule.
	if in.cfg.FailWriteAt != 0 && n == in.cfg.FailWriteAt {
		return 0, in.fail(opWrite, n, syscall.ENOSPC)
	}
	if in.cfg.ShortWriteAt != 0 && n == in.cfg.ShortWriteAt {
		return f.short(p, off, n)
	}
	if in.roll(opWrite, 1, n, in.cfg.PWriteErr) {
		if in.roll(opWrite, 2, n, in.cfg.PShortWrite) {
			return f.short(p, off, n)
		}
		errno := error(syscall.EIO)
		if in.roll(opWrite, 3, n, in.cfg.PENOSPC) {
			errno = syscall.ENOSPC
		}
		return 0, in.fail(opWrite, n, errno)
	}
	return f.inner.WriteAt(p, off)
}

// short persists a prefix of p and then fails, modelling a write torn
// by a full or failing device.
func (f *injFile) short(p []byte, off int64, n uint64) (int, error) {
	k := len(p) / 2
	written, err := f.inner.WriteAt(p[:k], off)
	if err != nil {
		return written, err
	}
	return written, f.in.fail(opWrite, n, syscall.ENOSPC)
}

func (f *injFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.in.begin(opRead)
	if err != nil {
		return 0, err
	}
	if f.in.roll(opRead, 1, n, f.in.cfg.PReadErr) {
		return 0, f.in.fail(opRead, n, syscall.EIO)
	}
	return f.inner.ReadAt(p, off)
}

func (f *injFile) Truncate(size int64) error {
	if f.in.dead.Load() {
		return &InjectedError{Op: "write", N: 0, Err: syscall.EIO}
	}
	if f.in.cfg.FailTruncate {
		return &InjectedError{Op: "write", N: 0, Err: syscall.EIO}
	}
	return f.inner.Truncate(size)
}

func (f *injFile) Sync() error {
	n, err := f.in.begin(opSync)
	if err != nil {
		return err
	}
	if f.in.roll(opSync, 1, n, f.in.cfg.PSyncErr) {
		return f.in.fail(opSync, n, syscall.EIO)
	}
	return f.inner.Sync()
}

func (f *injFile) Close() error { return f.inner.Close() }

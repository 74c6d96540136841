// Package fault is a deterministic, seed-driven fault-injection
// framework plus the circuit breaker that consumes its failures.
//
// The package has three parts:
//
//   - FS/File: a small filesystem seam mirroring exactly the os calls
//     the segment-log store performs. Production code passes OS()
//     (a zero-cost passthrough to the os package); tests and chaos
//     harnesses pass an *Injector.
//
//   - Injector: wraps an inner FS and injects read/write/fsync/rename
//     errors, ENOSPC and short writes. Every decision is a pure
//     function of (seed, operation class, per-class operation index),
//     so a schedule replays identically regardless of goroutine
//     interleaving — the property the chaos differential tests depend
//     on. FailWriteAt and ShortWriteAt pin a fault to exactly the Nth
//     write; SetDead flips the whole disk into a fail-everything mode.
//
//   - Breaker: a Closed/Open/HalfOpen circuit breaker with a
//     consecutive-failure trip threshold, exponential backoff with
//     deterministic jitter between probe windows, and an injectable
//     clock. The serving layer wraps every store operation in
//     Allow/Success/Failure so repeated disk errors degrade the
//     service to memory-only instead of paying a dead disk's latency
//     on every request.
package fault

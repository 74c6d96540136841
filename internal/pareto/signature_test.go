package pareto

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"moqo/internal/objective"
)

// bucketEdges are the costs at the edges of the signature's buckets: both
// zeros, negative costs, denormals, the values around the ends of the bucket
// range [2^-20, 2^44) and beyond it, +Inf, and pairs that share a bucket at
// every width but differ (1 and its successor, 1.5 and its successor).
var bucketEdges = []float64{
	0, math.Copysign(0, -1), -1, -2.5e-300,
	math.SmallestNonzeroFloat64, 0x1p-1030,
	0x1p-21, math.Nextafter(0x1p-20, 0), 0x1p-20,
	1, math.Nextafter(1, 2), 1.5, math.Nextafter(1.5, 2),
	math.Nextafter(0x1p44, 0), 0x1p44, 0x1p45, 1e300, math.MaxFloat64, math.Inf(1),
}

// sigWidths are objective sets of every signed width, three to nine.
func sigWidths() []objective.Set {
	all := objective.AllSet().IDs()
	var out []objective.Set
	for n := 3; n <= len(all); n++ {
		out = append(out, objective.NewSet(all[:n]...))
	}
	return out
}

// TestSignatureMonotone is the signature's exactness argument as a test: over
// random and special floats x <= y implies bucket(x) <= bucket(y) at every
// width, and the one-subtraction test sigCovers agrees with a field-by-field
// comparison on every pair of signatures, the extreme buckets included.
func TestSignatureMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	values := append([]float64(nil), bucketEdges...)
	values = append(values, math.Inf(-1), -math.MaxFloat64)
	for range 400 {
		x := math.Ldexp(r.Float64(), r.Intn(140)-70)
		if r.Intn(5) == 0 {
			x = -x
		}
		values = append(values, x, math.Float64frombits(r.Uint64()&^(1<<63)|uint64(r.Intn(2))<<63))
	}
	for _, objs := range sigWidths() {
		cfg := NewFlatConfig(objs, 1)
		n := objs.Len()
		if cfg.sigBits != uint(64/n) {
			t.Fatalf("%d objectives: fields of %d bits, want %d", n, cfg.sigBits, 64/n)
		}
		for _, x := range values {
			for _, y := range values {
				if x <= y && cfg.bucket(x) > cfg.bucket(y) {
					t.Fatalf("%d objectives: %v <= %v but bucket %d > %d", n, x, y, cfg.bucket(x), cfg.bucket(y))
				}
			}
		}
		if b := cfg.bucket(math.Inf(1)); b != uint64(cfg.sigTop) {
			t.Errorf("%d objectives: +Inf in bucket %d, want the top %d", n, b, cfg.sigTop)
		}
		field := func(s uint64, k int) uint64 { return s >> (uint(k) * cfg.sigBits) & uint64(cfg.sigTop) }
		sig := func() uint64 {
			var s uint64
			for k := range n {
				b := uint64(r.Int63n(cfg.sigTop + 1))
				if r.Intn(3) == 0 {
					b = [...]uint64{0, uint64(cfg.sigTop)}[r.Intn(2)]
				}
				s |= b << (uint(k) * cfg.sigBits)
			}
			return s
		}
		for range 20000 {
			hi, lo := sig(), sig()
			if r.Intn(2) == 0 { // mostly covered: lower some fields of hi to lo's
				for k := range n {
					if r.Intn(n) == 0 {
						m := uint64(cfg.sigTop) << (uint(k) * cfg.sigBits)
						hi = hi&^m | lo&m
					}
				}
			}
			want := true
			for k := range n {
				want = want && field(hi, k) >= field(lo, k)
			}
			if got := sigCovers(hi|cfg.guards, lo, cfg.guards); got != want {
				t.Fatalf("%d objectives: sigCovers(%#x, %#x) = %v, field by field %v", n, hi, lo, got, want)
			}
		}
	}
	if s := unsafe.Sizeof(record{}); s != 48 {
		t.Errorf("record is %d bytes, want 48", s)
	}
}

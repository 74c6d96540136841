package pareto

import (
	"math"

	"moqo/internal/objective"
)

// Dominance signatures: the one-word pre-test in front of the scans'
// cost-row reads (kernels.go), for archives of three or more active
// objectives.
//
// Each active objective k owns field k of a 64-bit word, sigBits =
// ⌊64/n⌋ bits wide. The field's top bit is a guard, always zero in a
// signature; the rest hold the cost's bucket. A bucket is the cost's IEEE-754
// pattern shifted right, so that six exponent bits and sigBits-7 mantissa
// bits remain, less the pattern of 2^-20, clamped to [0, sigTop]: every cost
// below 2^-20 — zero, a denormal, anything with the sign bit set (a negative
// cost, -0, -Inf) — is bucket 0, every cost of 2^44 or more (+Inf included)
// is sigTop. Over the non-negative floats the pattern ascends with the value,
// and the shift, the offset and the clamp keep that order, so
//
//	x <= y  implies  bucket(x) <= bucket(y)
//
// for every x and y that are not NaN (-0 and +0 share bucket 0). The range
// is where the costs are: stored costs at nine objectives span 2^-12
// (energy) to 2^43 (cpu_load) over TPC-H q2, q3, q5, q7, q10 and q21 and
// synthetic chain-12 and cycle-10; tuple_loss sits in [0.99, 1] and cores in
// 1-12. A cost outside it only shares an end bucket with its neighbours.
//
// "r <= t on every active objective" therefore implies bucket(r_k) <=
// bucket(t_k) in every field, which one subtraction tests for all fields at
// once: with H the guard bits, ((t|H) - r) & H == H (sigCovers). Each field
// of t|H is its bucket plus the guard, at least r's bucket, so no field
// borrows from the next, and a field keeps its guard exactly when t's bucket
// is at least r's. A failed test proves the row cannot answer; a passed one
// proves nothing, and the scan reads the cost row as before. The scans visit
// the same rows in the same order and decide each on the same comparisons,
// so archives, counters and hints are those of the scans without signatures.
//
// No NaN reaches a signature: a ranked archive holds no row, and scans for
// no candidate, whose key is NaN (FlatConfig.keys), and a NaN cost makes the
// key NaN.

// sigExpBits is the exponent bits of a bucket, and sigMinExp the exponent of
// the smallest cost above bucket 0: buckets span [2^sigMinExp,
// 2^(sigMinExp+2^sigExpBits)).
const (
	sigExpBits = 6
	sigMinExp  = -20
)

// resolveSignature sets the signature layout of n active objectives; fewer
// than three sign nothing (sigBits 0, every signature 0, no guards).
func (c *FlatConfig) resolveSignature() {
	n := len(c.ids)
	if n < 3 {
		return
	}
	c.sigBits = uint(64 / n)
	mant := c.sigBits - 1 - sigExpBits
	c.sigShift = 52 - mant
	c.sigLo = int64(1023+sigMinExp) << mant
	c.sigTop = 1<<(c.sigBits-1) - 1
	for k := range n {
		c.guards |= 1 << (uint(k)*c.sigBits + c.sigBits - 1)
	}
}

// bucket is cost x's bucket. The arithmetic shift takes a pattern with the
// sign bit set below zero, where the lower clamp catches it.
func (c *FlatConfig) bucket(x float64) uint64 {
	b := int64(math.Float64bits(x))>>c.sigShift - c.sigLo
	return uint64(min(max(b, 0), c.sigTop))
}

// signature is the signature of cost vector v: field k holds the bucket of
// v[ids[k]]. Zero for fewer than three active objectives.
func (c *FlatConfig) signature(v *objective.Vector) uint64 {
	if c.sigBits == 0 {
		return 0
	}
	var s uint64
	for k, o := range c.ids {
		s |= c.bucket(v[o]) << (uint(k) * c.sigBits)
	}
	return s
}

// thresholdSignature is the signature of thresholds t (field k holds the
// bucket of t[k]) with the guard bits set, ready for sigCovers.
func (c *FlatConfig) thresholdSignature(t *[stride]float64) uint64 {
	s := c.guards
	for k := range c.ids {
		s |= c.bucket(t[k]) << (uint(k) * c.sigBits)
	}
	return s
}

// sigCovers is the pre-test of "lo <= hi on every active objective": false
// when some field of signature lo holds a larger bucket than hi's, which
// proves the vectors are not so ordered. hiG is hi's signature with the guard
// bits g set.
func sigCovers(hiG, lo, g uint64) bool { return (hiG-lo)&g == g }

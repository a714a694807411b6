// Package mathx provides the deterministic random-number and sampling
// primitives shared by every simulator package.
//
// All randomness in the repository flows through RNG so that a run is
// reproducible bit-for-bit from a single seed. The generator is a
// xorshift64* variant: tiny state, no allocation, and fast enough to sit
// on the per-access hot path of the workload generators.
package mathx

// RNG is a small deterministic pseudo-random generator (xorshift64*).
// The zero value is invalid; construct with NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r := &RNG{state: seed}
	// Scramble the low-entropy seeds users tend to pass (0, 1, 2, ...)
	// so that nearby seeds produce unrelated streams.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
//nurapid:hotpath
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
//
//nurapid:hotpath
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("mathx: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
//
//nurapid:hotpath
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits, the standard construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
//
//nurapid:hotpath
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Split derives an independent generator from r. Deriving rather than
// sharing keeps sub-streams (e.g. one per benchmark application)
// decoupled: consuming numbers from one cannot perturb another.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() | 1)
}

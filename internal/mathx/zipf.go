package mathx

import (
	"math"
	"sync"
)

// Zipf draws integers in [0, N) with probability proportional to
// 1/(rank+1)^S. It is used by the workload generators to model the
// temporal-locality skew of a benchmark's hot working set: rank 0 is the
// hottest cache block, rank N-1 the coldest.
//
// The implementation precomputes the CDF once and samples by binary
// search, which is exact and allocation-free per draw. N is bounded by
// the hot-region block count (tens of thousands), so the table is cheap.
// Tables are shared read-only: every sampler of one (exponent, size)
// reads the table the first one built.
type Zipf struct {
	rng *RNG
	cdf []float64 // shared; never written after zipfCDF builds it
}

// zipfTables caches the CDF tables for the life of the process, one per
// distinct (exponent, size) pair sampled.
var zipfTables = struct {
	mu sync.Mutex
	m  map[zipfKey][]float64
}{m: make(map[zipfKey][]float64)}

type zipfKey struct {
	s float64
	n int
}

// NewZipf builds a sampler over [0, n) with exponent s >= 0.
// s == 0 degenerates to the uniform distribution. It panics if n <= 0
// or s is negative or NaN.
func NewZipf(rng *RNG, s float64, n int) *Zipf {
	if n <= 0 {
		panic("mathx: NewZipf called with non-positive n")
	}
	if !(s >= 0) {
		panic("mathx: NewZipf called with negative or NaN exponent")
	}
	return &Zipf{rng: rng, cdf: zipfCDF(s, n)}
}

// zipfCDF returns the shared CDF table of (s, n), building it on first
// use.
func zipfCDF(s float64, n int) []float64 {
	k := zipfKey{s, n}
	zipfTables.mu.Lock()
	defer zipfTables.mu.Unlock()
	if cdf, ok := zipfTables.m[k]; ok {
		return cdf
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0 // guard against float round-off at the tail
	zipfTables.m[k] = cdf
	return cdf
}

// N returns the size of the sampled domain.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw returns the next sample in [0, N()).
//
//nurapid:hotpath
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability mass of rank i (for tests and analysis).
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(NewRNG(1), 1.0, 100)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Draw = %d out of [0,100)", v)
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		s float64
		n int
	}{{1.0, 0}, {1.0, -3}, {-0.5, 10}, {math.NaN(), 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(s=%v, n=%d) must panic", tc.s, tc.n)
				}
			}()
			NewZipf(NewRNG(1), tc.s, tc.n)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	// With s=1 over 1000 items, rank 0 must be drawn far more often than
	// rank 500.
	z := NewZipf(NewRNG(2), 1.0, 1000)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] < 10*counts[500] {
		t.Fatalf("rank 0 drawn %d times, rank 500 %d times; want strong skew",
			counts[0], counts[500])
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	z := NewZipf(NewRNG(3), 0, 10)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Fatalf("rank %d frequency %v, want ~0.1", i, frac)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(NewRNG(4), 0.8, 257)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("probabilities sum to %v, want 1", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(z.N()) != 0 {
		t.Fatal("out-of-range Prob must be 0")
	}
}

func TestZipfSingleton(t *testing.T) {
	z := NewZipf(NewRNG(5), 1.2, 1)
	for i := 0; i < 100; i++ {
		if z.Draw() != 0 {
			t.Fatal("singleton domain must always draw 0")
		}
	}
}

func TestZipfMatchesTheory(t *testing.T) {
	// Empirical frequency of rank 0 should match its analytic mass.
	z := NewZipf(NewRNG(6), 1.0, 50)
	const n = 400000
	hits := 0
	for i := 0; i < n; i++ {
		if z.Draw() == 0 {
			hits++
		}
	}
	want := z.Prob(0)
	got := float64(hits) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank-0 frequency %v, analytic %v", got, want)
	}
}

func TestZipfQuickDrawInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16, sRaw uint8) bool {
		n := int(nRaw%1000) + 1
		s := float64(sRaw%30) / 10.0
		z := NewZipf(NewRNG(seed), s, n)
		for i := 0; i < 50; i++ {
			v := z.Draw()
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestZipfTablesShared pins the shared CDF tables: a second sampler of
// one (exponent, size) reads the first one's table, so building it
// allocates only the sampler, and both draw what a sampler seeded alike
// draws.
func TestZipfTablesShared(t *testing.T) {
	const s, n = 0.77, 3001 // a pair no other test builds
	z1 := NewZipf(NewRNG(7), s, n)
	var z2 *Zipf
	if allocs := testing.AllocsPerRun(10, func() { z2 = NewZipf(NewRNG(7), s, n) }); allocs > 2 {
		t.Fatalf("NewZipf of a cached (s, n) made %v allocations, want 2 (the RNG and the sampler)", allocs)
	}
	if &z1.cdf[0] != &z2.cdf[0] {
		t.Fatal("two samplers of one (s, n) hold different tables")
	}
	if z3 := NewZipf(NewRNG(7), s, n+1); &z3.cdf[0] == &z1.cdf[0] {
		t.Fatal("samplers of different sizes share a table")
	}
	z2 = NewZipf(NewRNG(7), s, n)
	for i := 0; i < 10000; i++ {
		if a, b := z1.Draw(), z2.Draw(); a != b {
			t.Fatalf("draw %d: %d vs %d", i, a, b)
		}
	}
}

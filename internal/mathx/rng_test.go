package mathx

import (
	"testing"
	"testing/quick"
)

func TestNewRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must be remapped to a working state")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsIndependent(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical draws out of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInt63nRange(t *testing.T) {
	r := NewRNG(9)
	const n = int64(1) << 40
	for i := 0; i < 10000; i++ {
		v := r.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n = %d out of range", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var below int
	for i := 0; i < n; i++ {
		if r.Float64() < 0.5 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("P(x < 0.5) = %v, want ~0.5", frac)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) must always be false")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) must always be true")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate %v, want ~0.25", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Split()
	// Drawing from the child must not change what the parent produces
	// relative to a parent that split but never used the child.
	parent2 := NewRNG(99)
	_ = parent2.Split()
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if parent.Uint64() != parent2.Uint64() {
			t.Fatal("child draws perturbed the parent stream")
		}
	}
}

func TestUint64QuickNoShortCycles(t *testing.T) {
	// Property: for any seed, the first 64 draws are distinct (a short
	// cycle or a stuck state would repeat almost immediately).
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		seen := make(map[uint64]bool, 64)
		for i := 0; i < 64; i++ {
			v := r.Uint64()
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

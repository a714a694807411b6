package mathx

import (
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampInt(t *testing.T) {
	if ClampInt(5, 1, 3) != 3 || ClampInt(-5, 1, 3) != 1 || ClampInt(2, 1, 3) != 2 {
		t.Fatal("ClampInt misbehaves")
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int64{1, 2, 4, 1024, 1 << 40} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false, want true", v)
		}
	}
	for _, v := range []int64{0, -1, -2, 3, 6, 1023} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true, want false", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1024, 10}, {0, -1}, {-5, -1}}
	for _, c := range cases {
		if got := Log2(c.v); got != c.want {
			t.Errorf("Log2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func TestLog2IsPow2Consistency(t *testing.T) {
	// Property: for powers of two, 1<<Log2(v) == v.
	f := func(shift uint8) bool {
		s := int(shift % 62)
		v := int64(1) << s
		return IsPow2(v) && Log2(v) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package stats

import (
	"math"
	"strings"
	"testing"
)

func TestDistributionBasics(t *testing.T) {
	d := NewDistribution("g0", "g1", "g2")
	for i := 0; i < 6; i++ {
		d.AddHit(0)
	}
	for i := 0; i < 3; i++ {
		d.AddHit(1)
	}
	d.AddMiss()
	if d.Total() != 10 {
		t.Fatalf("Total = %d, want 10", d.Total())
	}
	if d.HitFrac(0) != 0.6 || d.HitFrac(1) != 0.3 || d.HitFrac(2) != 0 {
		t.Fatalf("fracs = %v %v %v", d.HitFrac(0), d.HitFrac(1), d.HitFrac(2))
	}
	if d.MissFrac() != 0.1 {
		t.Fatalf("MissFrac = %v, want 0.1", d.MissFrac())
	}
	if d.HitCount(0) != 6 || d.MissCount() != 1 {
		t.Fatal("raw counts wrong")
	}
}

func TestDistributionFracsSumToOne(t *testing.T) {
	d := NewDistribution("a", "b")
	d.AddHit(0)
	d.AddHit(1)
	d.AddHit(1)
	d.AddMiss()
	sum := 0.0
	for _, f := range d.Fracs() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution("a")
	if d.Total() != 0 || d.HitFrac(0) != 0 || d.MissFrac() != 0 {
		t.Fatal("empty distribution must report zeros")
	}
}

func TestDistributionAddHitPanicsOutOfRange(t *testing.T) {
	d := NewDistribution("a")
	defer func() {
		if recover() == nil {
			t.Fatal("AddHit(5) must panic for a 1-category distribution")
		}
	}()
	d.AddHit(5)
}

func TestDistributionLabelsAndString(t *testing.T) {
	d := NewDistribution("g0", "g1")
	if d.NumCategories() != 2 {
		t.Fatal("category count wrong")
	}
	d.AddHit(0)
	s := d.String()
	if !strings.Contains(s, "g0") || !strings.Contains(s, "miss") {
		t.Fatalf("String() = %q missing content", s)
	}
}

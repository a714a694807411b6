package cacti

import (
	"math"
	"testing"

	"nurapid/internal/floorplan"
)

func plan(n int) *floorplan.Plan { return floorplan.NewLShapedPlan(8, n) }

// TestTable4Anchors pins the latency anchors the paper states explicitly
// in Sec. 5.1: fastest d-group of the 2-d-group config is 19 cycles, of
// the 4-d-group config 14 cycles (the "ideal" constant), and of the
// 8-d-group config 12 cycles.
func TestTable4Anchors(t *testing.T) {
	m := Default()
	cases := []struct {
		groups  int
		fastest int
	}{{2, 19}, {4, 14}, {8, 12}}
	for _, c := range cases {
		lats := m.DGroupLatencies(plan(c.groups))
		if lats[0] != c.fastest {
			t.Errorf("%d d-groups: fastest latency %d, want %d", c.groups, lats[0], c.fastest)
		}
	}
}

func TestDGroupLatenciesMonotone(t *testing.T) {
	m := Default()
	for _, n := range []int{2, 4, 8} {
		lats := m.DGroupLatencies(plan(n))
		for i := 1; i < len(lats); i++ {
			if lats[i] < lats[i-1] {
				t.Fatalf("n=%d: latency not monotone: %v", n, lats)
			}
		}
	}
}

// TestSlowestLatencyGrowsWithGroups pins the paper's observation that the
// slowest megabyte gets slower as the number of d-groups grows, because
// small far d-groups land in remote floorplan locations.
func TestSlowestLatencyGrowsWithGroups(t *testing.T) {
	m := Default()
	l2 := m.DGroupLatencies(plan(2))
	l4 := m.DGroupLatencies(plan(4))
	l8 := m.DGroupLatencies(plan(8))
	if !(l8[7] > l4[3] && l4[3] > l2[1]) {
		t.Fatalf("slowest latencies must grow with group count: 2g=%d 4g=%d 8g=%d",
			l2[1], l4[3], l8[7])
	}
}

// TestTable2NuRAPIDEnergyAnchors pins the paper's Table 2 energies for
// NuRAPID d-groups to within 5%.
func TestTable2NuRAPIDEnergyAnchors(t *testing.T) {
	m := Default()
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s = %.3f nJ, want %.2f (±5%%)", name, got, want)
		}
	}
	e4 := m.DGroupEnergies(plan(4))
	check("closest of 4x2MB", e4[0], 0.42)
	check("farthest of 4x2MB", e4[3], 3.3)
	e8 := m.DGroupEnergies(plan(8))
	check("closest of 8x1MB", e8[0], 0.40)
	check("farthest of 8x1MB", e8[7], 4.6)
}

func TestTable2SmallStructureAnchors(t *testing.T) {
	m := Default()
	if m.NUCABankNJ != 0.18 {
		t.Errorf("closest NUCA bank energy %v, want 0.18", m.NUCABankNJ)
	}
	if m.SmartSearchNJ != 0.19 {
		t.Errorf("smart-search energy %v, want 0.19", m.SmartSearchNJ)
	}
	if m.L1NJ != 0.57 {
		t.Errorf("L1 energy %v, want 0.57", m.L1NJ)
	}
}

func TestDGroupEnergiesMonotone(t *testing.T) {
	m := Default()
	for _, n := range []int{2, 4, 8} {
		es := m.DGroupEnergies(plan(n))
		for i := 1; i < len(es); i++ {
			if es[i] < es[i-1] {
				t.Fatalf("n=%d: energies not monotone: %v", n, es)
			}
		}
	}
}

func TestDataArrayCyclesGrowsWithCapacity(t *testing.T) {
	m := Default()
	if !(m.DataArrayCycles(1) < m.DataArrayCycles(2) && m.DataArrayCycles(2) < m.DataArrayCycles(4)) {
		t.Fatal("data array access time must grow with capacity")
	}
}

func TestDataArrayCyclesPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on non-positive capacity")
		}
	}()
	Default().DataArrayCycles(0)
}

func TestDataAccessNJPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on non-positive capacity")
		}
	}()
	Default().DataAccessNJ(-1)
}

// TestNUCABankLatencies pins the D-NUCA column of Table 4: the average
// latency of each successive megabyte of banks (by distance) and that the
// fastest banks beat NuRAPID's fastest d-group (parallel tag-data access
// plus tiny banks).
func TestNUCABankLatencies(t *testing.T) {
	m := Default()
	grid := floorplan.NewNUCAGrid(8, 64)
	lats := m.NUCABankLatencies(grid)
	if len(lats) != 128 {
		t.Fatalf("got %d bank latencies", len(lats))
	}
	order := grid.BanksByDistance()
	want := []int{7, 11, 14, 17, 20, 23, 26, 29}
	for mb := 0; mb < 8; mb++ {
		sum := 0
		for i := 0; i < 16; i++ {
			sum += lats[order[mb*16+i]]
		}
		avg := float64(sum) / 16
		if math.Abs(avg-float64(want[mb])) > 0.5 {
			t.Errorf("MB %d average latency %.1f, want %d", mb+1, avg, want[mb])
		}
	}
	nurapidFastest := m.DGroupLatencies(plan(8))[0]
	if lats[order[0]] >= nurapidFastest {
		t.Errorf("closest NUCA bank (%d cycles) must beat NuRAPID's fastest d-group (%d)",
			lats[order[0]], nurapidFastest)
	}
}

func TestNUCABankEnergies(t *testing.T) {
	m := Default()
	grid := floorplan.NewNUCAGrid(8, 64)
	es := m.NUCABankEnergies(grid)
	order := grid.BanksByDistance()
	if math.Abs(es[order[0]]-0.18) > 1e-9 {
		t.Errorf("closest bank energy %.3f, want 0.18", es[order[0]])
	}
	far := es[order[len(order)-1]]
	if far <= 1.0 || far > 5.0 {
		t.Errorf("farthest bank energy %.3f outside plausible range (1, 5]", far)
	}
	// Energy must be monotone in distance rank.
	prev := -1.0
	for _, b := range order {
		if es[b] < prev {
			t.Fatal("bank energies not monotone in distance")
		}
		prev = es[b]
	}
}

func TestUniformCacheNJ(t *testing.T) {
	m := Default()
	e1 := m.UniformCacheNJ(1)
	e8 := m.UniformCacheNJ(8)
	if e1 <= 0 || e8 <= e1 {
		t.Fatalf("uniform cache energy must grow with capacity: 1MB=%.3f 8MB=%.3f", e1, e8)
	}
	// The 8-MB uniform L3 must cost more per access than NuRAPID's
	// closest d-group but less than its farthest (it averages routes).
	e4 := m.DGroupEnergies(plan(4))
	if !(e8 > e4[0] && e8 < e4[3]) {
		t.Fatalf("8MB uniform energy %.3f should sit between %v", e8, e4)
	}
}

// TestFullTable4 locks in the complete reproduced Table 4 so any change
// to the calibration is a conscious, reviewed one.
func TestFullTable4(t *testing.T) {
	m := Default()
	want := map[int][]int{
		2: {19, 33},
		4: {14, 23, 25, 34},
		8: {12, 17, 20, 25, 28, 33, 35, 41},
	}
	for n, w := range want {
		got := m.DGroupLatencies(plan(n))
		if len(got) != len(w) {
			t.Fatalf("n=%d: got %v", n, got)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("n=%d group %d: latency %d, want %d (full: %v)", n, i, got[i], w[i], got)
			}
		}
	}
}

// TestScaledScalesOnlyWires checks that Scaled multiplies the two wire
// constants, leaves every other parameter and the receiver unchanged,
// and that 1.0 reproduces the calibrated model exactly.
func TestScaledScalesOnlyWires(t *testing.T) {
	m := Default()
	if *m.Scaled(1) != *m {
		t.Fatal("Scaled(1) must reproduce the calibrated model")
	}
	s := m.Scaled(2)
	if s.WireCyclesUnit != 2*m.WireCyclesUnit || s.WireNJUnit != 2*m.WireNJUnit {
		t.Fatalf("Scaled(2) wires = %v cycles, %v nJ; want %v, %v",
			s.WireCyclesUnit, s.WireNJUnit, 2*m.WireCyclesUnit, 2*m.WireNJUnit)
	}
	want := *m
	want.WireCyclesUnit, want.WireNJUnit = s.WireCyclesUnit, s.WireNJUnit
	if *s != want {
		t.Fatalf("Scaled(2) changed more than the wire constants:\n%+v\nwant\n%+v", *s, want)
	}
	if *m != *Default() {
		t.Fatal("Scaled modified its receiver")
	}
}

// TestScaledWiresSlowFarGroups checks the technology trend Scaled
// models: slower wires leave the ordering of d-groups intact and widen
// the gap between the slowest and fastest group.
func TestScaledWiresSlowFarGroups(t *testing.T) {
	p := plan(4)
	base := Default().DGroupLatencies(p)
	slow := Default().Scaled(2).DGroupLatencies(p)
	for i := range base {
		if slow[i] < base[i] {
			t.Errorf("d-group %d: %d cycles with slower wires, %d before", i, slow[i], base[i])
		}
	}
	if slow[3]-slow[0] <= base[3]-base[0] {
		t.Errorf("slowest-fastest gap %d with slower wires, %d before; want it wider",
			slow[3]-slow[0], base[3]-base[0])
	}
}

func TestScaledPanicsOnNonPositiveFactor(t *testing.T) {
	for _, f := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scaled(%v) must panic", f)
				}
			}()
			Default().Scaled(f)
		}()
	}
}

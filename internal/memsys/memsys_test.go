package memsys

import "testing"

func TestMemoryLatencyMatchesTable1(t *testing.T) {
	// Table 1: 130 cycles + 4 cycles per 8 bytes -> 194 for 128 B.
	m := NewMemory(128)
	if m.Latency() != 194 {
		t.Fatalf("Latency = %d, want 194", m.Latency())
	}
}

func TestMemoryReadTiming(t *testing.T) {
	m := NewMemory(128)
	done := m.Read(1000)
	if done != 1194 {
		t.Fatalf("Read done at %d, want 1194", done)
	}
	if m.Accesses != 1 {
		t.Fatalf("Accesses = %d", m.Accesses)
	}
	if m.EnergyNJ() != m.AccessNJ {
		t.Fatalf("energy = %v, want %v", m.EnergyNJ(), m.AccessNJ)
	}
}

func TestMemoryWriteCharges(t *testing.T) {
	m := NewMemory(128)
	m.Write()
	if m.Accesses != 1 || m.Writes != 1 {
		t.Fatalf("accesses=%d writes=%d", m.Accesses, m.Writes)
	}
	if m.EnergyNJ() != m.AccessNJ {
		t.Fatal("write must charge energy")
	}
}

func TestPortFreeStartsImmediately(t *testing.T) {
	var p Port
	if start := p.Acquire(100, 10); start != 100 {
		t.Fatalf("start = %d, want 100", start)
	}
	if p.FreeAt() != 110 {
		t.Fatalf("FreeAt = %d, want 110", p.FreeAt())
	}
	if p.Conflicts != 0 {
		t.Fatal("no conflict expected")
	}
}

func TestPortSerializes(t *testing.T) {
	var p Port
	p.Acquire(100, 10)
	start := p.Acquire(105, 20)
	if start != 110 {
		t.Fatalf("second start = %d, want 110", start)
	}
	if p.Conflicts != 1 || p.WaitCycles != 5 {
		t.Fatalf("conflicts=%d wait=%d", p.Conflicts, p.WaitCycles)
	}
	if p.FreeAt() != 130 {
		t.Fatalf("FreeAt = %d, want 130", p.FreeAt())
	}
}

func TestPortIdleGap(t *testing.T) {
	var p Port
	p.Acquire(0, 10)
	start := p.Acquire(50, 10) // long after the port went idle
	if start != 50 {
		t.Fatalf("start = %d, want 50", start)
	}
	if p.BusyCycles != 20 {
		t.Fatalf("BusyCycles = %d, want 20", p.BusyCycles)
	}
}

func TestPortExtend(t *testing.T) {
	var p Port
	p.Acquire(0, 10)
	p.Extend(15)
	if p.FreeAt() != 25 {
		t.Fatalf("FreeAt = %d, want 25", p.FreeAt())
	}
	if p.BusyCycles != 25 {
		t.Fatalf("BusyCycles = %d, want 25", p.BusyCycles)
	}
}

// TestPortRipple hand-traces the movement debt: only port time Extend
// booked past the last issue interval, and still outstanding at the
// access's cycle, counts as ripple.
func TestPortRipple(t *testing.T) {
	var p Port
	if r := p.Ripple(0); r != 0 {
		t.Fatalf("idle port ripple = %d, want 0", r)
	}
	p.Acquire(0, 4) // issue interval [0, 4)
	for _, c := range []struct{ now, want int64 }{{0, 0}, {2, 0}, {9, 0}} {
		if r := p.Ripple(c.now); r != c.want {
			t.Fatalf("no movement: Ripple(%d) = %d, want %d", c.now, r, c.want)
		}
	}
	p.Extend(8) // movement books [4, 12)
	for _, c := range []struct{ now, want int64 }{
		{0, 8},  // waits 12: 4 behind the issue interval, 8 behind movement
		{2, 8},  // waits 10: 2 plain busy, 8 ripple
		{6, 6},  // waits 6, all of it movement
		{12, 0}, // port free
		{20, 0},
	} {
		if r := p.Ripple(c.now); r != c.want {
			t.Fatalf("Ripple(%d) = %d, want %d", c.now, r, c.want)
		}
	}
	p.Acquire(6, 4) // starts at 12: the debt is paid
	if r := p.Ripple(12); r != 0 {
		t.Fatalf("after a new issue, Ripple(12) = %d, want 0", r)
	}
}

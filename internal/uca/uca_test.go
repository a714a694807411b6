package uca

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
)

func newIdeal(t *testing.T) (*Uniform, *memsys.Memory) {
	t.Helper()
	mem := memsys.NewMemory(128)
	return NewIdeal(cacti.Default(), mem), mem
}

func TestIdealHitLatency(t *testing.T) {
	u, _ := newIdeal(t)
	r := u.Access(memsys.Req{Now: 0, Addr: 0x1000, Write: false})
	if r.Hit {
		t.Fatal("cold access must miss")
	}
	r = u.Access(memsys.Req{Now: r.DoneAt, Addr: 0x1000, Write: false})
	if !r.Hit {
		t.Fatal("second access must hit")
	}
	if got := r.DoneAt - u.port.FreeAt() + 14; got != 14 && r.DoneAt <= 0 {
		t.Fatalf("unexpected hit completion %d", r.DoneAt)
	}
}

func TestIdealMissGoesToMemory(t *testing.T) {
	u, mem := newIdeal(t)
	r := u.Access(memsys.Req{Now: 100, Addr: 0x2000, Write: false})
	// Miss detected after the 8-cycle tag probe, then 194 memory cycles.
	want := int64(100 + 8 + 194)
	if r.DoneAt != want {
		t.Fatalf("miss done at %d, want %d", r.DoneAt, want)
	}
	if mem.Accesses != 1 {
		t.Fatalf("memory accesses = %d", mem.Accesses)
	}
	if r.Group != -1 {
		t.Fatal("miss must report group -1")
	}
}

func TestIdealPortSerializes(t *testing.T) {
	u, _ := newIdeal(t)
	u.Access(memsys.Req{Now: 0, Addr: 0x1000, Write: false})
	u.Access(memsys.Req{Now: 0, Addr: 0x1000, Write: false}) // hit, issued at the same cycle
	r := u.Access(memsys.Req{Now: 0, Addr: 0x1000, Write: false})
	// The pipelined port issues every 4 cycles: the miss holds [0,4),
	// the second access starts at 4, the third at 8 and completes 14
	// cycles later.
	if r.DoneAt != 8+14 {
		t.Fatalf("serialized hit done at %d, want 22", r.DoneAt)
	}
}

func TestIdealDirtyWriteback(t *testing.T) {
	u, mem := newIdeal(t)
	geo := u.Cache().Geometry()
	stride := uint64(geo.NumSets() * geo.BlockBytes)
	u.Access(memsys.Req{Now: 0, Addr: 0, Write: true}) // dirty block in set 0
	for i := 1; i <= geo.Assoc; i++ {
		u.Access(memsys.Req{Now: int64(i) * 1000, Addr: uint64(i) * stride, Write: false})
	}
	if mem.Writes != 1 {
		t.Fatalf("memory writes = %d, want 1 (dirty victim)", mem.Writes)
	}
	if u.Counters().Get("writebacks") != 1 {
		t.Fatal("writeback counter not incremented")
	}
}

func TestIdealDistributionAndEnergy(t *testing.T) {
	u, _ := newIdeal(t)
	u.Access(memsys.Req{Now: 0, Addr: 0x40, Write: false})
	u.Access(memsys.Req{Now: 1000, Addr: 0x40, Write: false})
	d := u.Distribution()
	if d.HitCount(0) != 1 || d.MissCount() != 1 {
		t.Fatalf("distribution hits=%d misses=%d", d.HitCount(0), d.MissCount())
	}
	if u.EnergyNJ() <= 0 {
		t.Fatal("energy must accumulate")
	}
}

func newBase(t *testing.T) (*Hierarchy, *memsys.Memory) {
	t.Helper()
	mem := memsys.NewMemory(128)
	return NewHierarchy(cacti.Default(), mem), mem
}

func TestHierarchyL2Hit(t *testing.T) {
	h, _ := newBase(t)
	h.Access(memsys.Req{Now: 0, Addr: 0x4000, Write: false})
	r := h.Access(memsys.Req{Now: 10000, Addr: 0x4000, Write: false})
	if !r.Hit || r.Group != 0 {
		t.Fatalf("expected L2 hit, got %+v", r)
	}
	if r.DoneAt != 10000+11 {
		t.Fatalf("L2 hit done at %d, want %d", r.DoneAt, 10000+11)
	}
}

func TestHierarchyL3Hit(t *testing.T) {
	h, _ := newBase(t)
	h.Access(memsys.Req{Now: 0, Addr: 0x4000, Write: false})
	// Evict 0x4000 from the 1-MB L2 with 8 conflicting blocks; the 8-MB
	// L3 keeps all of them (its sets are 8x larger... same assoc, more
	// sets, so these map to distinct L3 sets or fewer conflicts).
	l2stride := uint64(h.L2().Geometry().NumSets() * 128)
	for i := 1; i <= 8; i++ {
		h.Access(memsys.Req{Now: int64(i) * 1000, Addr: 0x4000 + uint64(i)*l2stride, Write: false})
	}
	r := h.Access(memsys.Req{Now: 100000, Addr: 0x4000, Write: false})
	if !r.Hit || r.Group != 1 {
		t.Fatalf("expected L3 hit, got %+v", r)
	}
	if r.DoneAt < 100000+43 {
		t.Fatalf("L3 hit done at %d, want >= %d", r.DoneAt, 100000+43)
	}
}

func TestHierarchyMissTiming(t *testing.T) {
	h, mem := newBase(t)
	r := h.Access(memsys.Req{Now: 500, Addr: 0x8000, Write: false})
	if r.Hit {
		t.Fatal("cold access must miss")
	}
	// L2 tags (6) + L3 tags (8) + memory (194).
	want := int64(500 + 6 + 8 + 194)
	if r.DoneAt != want {
		t.Fatalf("miss done at %d, want %d", r.DoneAt, want)
	}
	if mem.Accesses != 1 {
		t.Fatalf("memory accesses = %d", mem.Accesses)
	}
}

func TestHierarchyDirtyL2VictimLandsInL3(t *testing.T) {
	h, mem := newBase(t)
	h.Access(memsys.Req{Now: 0, Addr: 0x4000, Write: true}) // dirty in both L2 and L3
	l2stride := uint64(h.L2().Geometry().NumSets() * 128)
	for i := 1; i <= 8; i++ {
		h.Access(memsys.Req{Now: int64(i) * 1000, Addr: 0x4000 + uint64(i)*l2stride, Write: false})
	}
	// The dirty victim must have been absorbed by the L3, not memory.
	if mem.Writes != 0 {
		t.Fatalf("memory writes = %d, want 0", mem.Writes)
	}
	if h.Counters().Get("l2_writebacks") != 1 {
		t.Fatalf("l2_writebacks = %d, want 1", h.Counters().Get("l2_writebacks"))
	}
	// And the L3 copy must now be dirty.
	set := h.L3().Geometry().SetIndex(0x4000)
	way, hit := h.L3().Array().Lookup(0x4000)
	if !hit || !h.L3().Array().Line(set, way).Dirty {
		t.Fatal("L3 copy of the victim must be dirty")
	}
}

func TestHierarchyDistribution(t *testing.T) {
	h, _ := newBase(t)
	h.Access(memsys.Req{Now: 0, Addr: 0x100, Write: false})    // miss
	h.Access(memsys.Req{Now: 1000, Addr: 0x100, Write: false}) // L2 hit
	d := h.Distribution()
	if d.HitCount(0) != 1 || d.MissCount() != 1 {
		t.Fatalf("distribution: %v", d)
	}
	if h.Name() != "base-l2l3" {
		t.Fatal("name wrong")
	}
	if h.EnergyNJ() <= 0 {
		t.Fatal("energy must accumulate")
	}
}

func TestHierarchyEnergyOrdering(t *testing.T) {
	// An L3 hit must cost more energy than an L2 hit.
	m := cacti.Default()
	if m.UniformCacheNJ(8) <= m.UniformCacheNJ(1) {
		t.Fatal("L3 access energy must exceed L2's")
	}
}

var _ memsys.LowerLevel = (*Uniform)(nil)
var _ memsys.LowerLevel = (*Hierarchy)(nil)

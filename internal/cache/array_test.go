package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"nurapid/internal/mathx"
)

func smallGeo() Geometry {
	return Geometry{CapacityBytes: 4096, BlockBytes: 64, Assoc: 4} // 16 sets
}

// TestLineSize pins the 16-byte tag entry: every tag array and the free
// list that holds its lines scale with it, and the field order keeps
// the two flags in what would otherwise be padding after Aux.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 16 {
		t.Fatalf("cache.Line is %d bytes, want 16", got)
	}
}

func TestNewArrayRejectsBadGeometry(t *testing.T) {
	if _, err := NewArray(Geometry{}); err == nil {
		t.Fatal("bad geometry must be rejected")
	}
}

func TestMustNewArrayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewArray must panic on bad geometry")
		}
	}()
	MustNewArray(Geometry{})
}

func TestArrayLookupMissOnEmpty(t *testing.T) {
	a := MustNewArray(smallGeo())
	if _, hit := a.Lookup(0x1000); hit {
		t.Fatal("empty array must miss")
	}
}

func TestArrayFillThenHit(t *testing.T) {
	a := MustNewArray(smallGeo())
	addr := Addr(0x1040)
	set := a.Geometry().SetIndex(addr)
	way := a.VictimWay(set)
	a.Fill(addr, way)
	gotWay, hit := a.Lookup(addr)
	if !hit || gotWay != way {
		t.Fatalf("lookup after fill: way=%d hit=%v", gotWay, hit)
	}
}

func TestArrayVictimPrefersInvalid(t *testing.T) {
	a := MustNewArray(smallGeo())
	addr := Addr(0)
	set := a.Geometry().SetIndex(addr)
	a.Fill(addr, 0)
	if v := a.VictimWay(set); v == 0 {
		t.Fatal("victim must prefer an invalid way over the filled one")
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := MustNewArray(smallGeo())
	addr := Addr(0x40)
	set := a.Geometry().SetIndex(addr)
	a.Fill(addr, 1)
	a.Invalidate(set, 1)
	if _, hit := a.Lookup(addr); hit {
		t.Fatal("invalidated line must miss")
	}
	if a.CountValid() != 0 {
		t.Fatal("CountValid must be 0 after invalidate")
	}
}

func TestArrayLinePanicsOutOfRange(t *testing.T) {
	a := MustNewArray(smallGeo())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Line must panic")
		}
	}()
	a.Line(0, 99)
}

func TestArrayFillResetsState(t *testing.T) {
	a := MustNewArray(smallGeo())
	l := a.Fill(0x80, 2)
	l.Dirty = true
	l.Aux = 77
	l2 := a.Fill(0x80+Addr(a.Geometry().CapacityBytes), 2) // same set, new tag
	if l2.Dirty || l2.Aux != 0 {
		t.Fatal("Fill must reset Dirty and Aux")
	}
}

func TestLRUVictimIsLeastRecent(t *testing.T) {
	g := smallGeo()
	a := MustNewArray(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	for w := 0; w < 4; w++ {
		a.Fill(Addr(w)*setStride, w) // all in set 0
	}
	if v := a.VictimWay(0); v != 0 {
		t.Fatalf("victim = %d, want 0", v)
	}
	a.Touch(0, 0) // now way 1 is oldest
	if v := a.VictimWay(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestLRUSetsIndependent(t *testing.T) {
	a := MustNewArray(smallGeo())
	for set := 0; set < 2; set++ {
		for w := 0; w < 4; w++ {
			a.Line(set, w).Valid = true
		}
	}
	for _, w := range []int{0, 1, 2, 3} {
		a.Touch(0, w)
	}
	for _, w := range []int{3, 2, 1, 0} {
		a.Touch(1, w)
	}
	if v := a.VictimWay(0); v != 0 {
		t.Fatalf("set 0 victim = %d, want 0", v)
	}
	if v := a.VictimWay(1); v != 3 {
		t.Fatalf("set 1 victim = %d, want 3", v)
	}
}

func TestArrayFillMakesLineMostRecent(t *testing.T) {
	g := smallGeo()
	a := MustNewArray(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	for w := 0; w < 4; w++ {
		a.Fill(Addr(w)*setStride, w)
	}
	a.Fill(4*setStride, a.VictimWay(0)) // replaces way 0
	if v := a.VictimWay(0); v != 1 {
		t.Fatalf("victim after refill = %d, want 1", v)
	}
	if way, hit := a.Lookup(4 * setStride); !hit || way != 0 {
		t.Fatalf("refilled block at way %d (hit=%v), want way 0", way, hit)
	}
}

func TestArrayFindTagMatchesLookup(t *testing.T) {
	a := MustNewArray(smallGeo())
	ix := a.Index()
	rng := mathx.NewRNG(7)
	for i := 0; i < 2000; i++ {
		addr := Addr(rng.Intn(1 << 16))
		if rng.Bool(0.5) {
			set := ix.SetIndex(addr)
			a.Fill(addr, a.VictimWay(set))
		}
		wantWay, wantHit := a.Lookup(addr)
		way, hit := a.FindTag(ix.SetIndex(addr), ix.Tag(addr))
		if way != wantWay || hit != wantHit {
			t.Fatalf("%#x: FindTag = (%d, %v), Lookup = (%d, %v)", addr, way, hit, wantWay, wantHit)
		}
	}
}

func TestArrayVictimWayInStaysInRange(t *testing.T) {
	g := smallGeo()
	a := MustNewArray(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	for w := 0; w < 3; w++ {
		a.Fill(Addr(w)*setStride, w) // ways 0..2 of set 0, way 0 oldest; way 3 invalid
	}
	cases := []struct{ lo, hi, want int }{
		{0, 3, 0}, // the invalid way 3 lies outside the range
		{1, 3, 1}, // the older way 0 lies outside the range
		{2, 4, 3}, // the invalid way inside beats the older valid way 2
		{3, 4, 3},
		{0, 4, 3}, // VictimWay's range
	}
	for _, c := range cases {
		if v := a.VictimWayIn(0, c.lo, c.hi); v != c.want {
			t.Errorf("VictimWayIn(0, %d, %d) = %d, want %d", c.lo, c.hi, v, c.want)
		}
	}
	if a.VictimWay(0) != a.VictimWayIn(0, 0, g.Assoc) {
		t.Error("VictimWay must be VictimWayIn over the whole set")
	}
	a.Fill(3*setStride, 3)
	a.Touch(0, 2)
	if v := a.VictimWayIn(0, 2, 4); v != 3 {
		t.Errorf("after touching way 2, VictimWayIn(0, 2, 4) = %d, want 3", v)
	}
	a.Invalidate(0, 0)
	if v := a.VictimWayIn(0, 1, 4); v != 1 {
		t.Errorf("with way 0 invalid, VictimWayIn(0, 1, 4) = %d, want 1", v)
	}
}

func TestArraySwapMovesRecencyWithBlocks(t *testing.T) {
	g := smallGeo()
	a := MustNewArray(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	for w := 0; w < 4; w++ {
		a.Fill(Addr(w)*setStride, w) // block w in way w; block 0 is the LRU
	}
	a.Line(0, 0).Dirty = true
	a.Line(0, 0).Aux = 9
	a.Swap(0, 0, 3)
	if way, hit := a.Lookup(0); !hit || way != 3 {
		t.Fatalf("block 0 at way %d (hit=%v), want way 3", way, hit)
	}
	if way, hit := a.Lookup(3 * setStride); !hit || way != 0 {
		t.Fatalf("block 3 at way %d (hit=%v), want way 0", way, hit)
	}
	if l := a.Line(0, 3); !l.Dirty || l.Aux != 9 {
		t.Fatal("Swap must move Dirty and Aux with the block")
	}
	// The LRU block moved to way 3, so the victim follows it there; the
	// most recent block moved to way 0, which is now the last choice.
	wantOrder := []int{3, 1, 2, 0}
	for _, want := range wantOrder {
		v := a.VictimWay(0)
		if v != want {
			t.Fatalf("victim = %d, want %d (order %v)", v, want, wantOrder)
		}
		a.Touch(0, v)
	}
	if v := a.VictimWay(1); v != 0 {
		t.Fatalf("Swap in set 0 disturbed set 1: victim %d", v)
	}
}

func TestArrayStampsNeverExceedClock(t *testing.T) {
	g := smallGeo()
	a := MustNewArray(g)
	rng := mathx.NewRNG(11)
	for i := 0; i < 5000; i++ {
		set, way := rng.Intn(g.NumSets()), rng.Intn(g.Assoc)
		base := set * g.Assoc
		switch rng.Intn(4) {
		case 0:
			a.Touch(set, way)
			if a.stamps[base+way] != a.clock {
				t.Fatalf("op %d: Touch stamped %d, clock %d", i, a.stamps[base+way], a.clock)
			}
		case 1:
			addr := Addr(rng.Intn(1 << 16))
			set = a.Index().SetIndex(addr)
			a.Fill(addr, way)
			if s := a.stamps[set*g.Assoc+way]; s != a.clock {
				t.Fatalf("op %d: Fill stamped %d, clock %d", i, s, a.clock)
			}
		case 2:
			other := rng.Intn(g.Assoc)
			s1, s2 := a.stamps[base+way], a.stamps[base+other]
			a.Swap(set, way, other)
			if a.stamps[base+way] != s2 || a.stamps[base+other] != s1 {
				t.Fatalf("op %d: Swap did not exchange stamps", i)
			}
		case 3:
			a.Invalidate(set, way)
		}
		for j, s := range a.stamps {
			if s > a.clock {
				t.Fatalf("op %d: line %d stamp %d beyond clock %d", i, j, s, a.clock)
			}
		}
	}
}

func TestArraySetAliasesLines(t *testing.T) {
	g := smallGeo()
	a := MustNewArray(g)
	lines := a.Set(1)
	if len(lines) != g.Assoc || cap(lines) != g.Assoc {
		t.Fatalf("Set(1) has len %d cap %d, want %d and %d", len(lines), cap(lines), g.Assoc, g.Assoc)
	}
	lines[2] = Line{Valid: true, Tag: 5}
	if l := a.Line(1, 2); !l.Valid || l.Tag != 5 {
		t.Fatal("a write through Set must reach the array")
	}
	addr := a.Geometry().AddrOf(1, 7)
	a.Fill(addr, 0)
	if !lines[0].Valid || lines[0].Tag != 7 {
		t.Fatal("Set must see a later Fill of its set")
	}
	if w, hit := a.FindTag(1, 5); !hit || w != 2 {
		t.Fatalf("FindTag(1, 5) = (%d, %v), want (2, true)", w, hit)
	}
	if a.Set(0)[2].Valid || a.Set(2)[2].Valid {
		t.Fatal("Set(1) must not alias its neighbours")
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := MustNewCache(smallGeo())
	o := c.Access(0x100, false)
	if o.Hit {
		t.Fatal("first access must miss")
	}
	o = c.Access(0x100, false)
	if !o.Hit {
		t.Fatal("second access must hit")
	}
}

func TestCacheSameBlockDifferentOffsetHits(t *testing.T) {
	c := MustNewCache(smallGeo())
	c.Access(0x100, false)
	if o := c.Access(0x13F, false); !o.Hit {
		t.Fatal("access within the same 64-B block must hit")
	}
}

func TestCacheEvictionAndWriteback(t *testing.T) {
	g := smallGeo() // 16 sets, 4 ways
	c := MustNewCache(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	// Fill all 4 ways of set 0, dirtying the first.
	c.Access(0*setStride, true)
	for i := 1; i < 4; i++ {
		c.Access(Addr(i)*setStride, false)
	}
	// Fifth block in set 0 evicts the LRU (the dirty first one).
	o := c.Access(4*setStride, false)
	if o.Hit {
		t.Fatal("conflict access must miss")
	}
	if !o.Evicted {
		t.Fatal("eviction expected")
	}
	if !o.Victim.Dirty {
		t.Fatal("victim was written; eviction must be dirty")
	}
	if o.Victim.Addr != 0 {
		t.Fatalf("victim address %#x, want 0", o.Victim.Addr)
	}
}

func TestCacheWriteHitSetsDirty(t *testing.T) {
	g := smallGeo()
	c := MustNewCache(g)
	c.Access(0x200, false)
	c.Access(0x200, true) // write hit dirties the line
	setStride := Addr(g.NumSets() * g.BlockBytes)
	base := Addr(0x200) / setStride * setStride // not needed; evict via conflicts
	_ = base
	set := g.SetIndex(0x200)
	for i := 1; i <= 4; i++ {
		a := Addr(0x200) + Addr(i)*setStride
		if g.SetIndex(a) != set {
			t.Fatal("stride math wrong")
		}
		o := c.Access(a, false)
		if o.Evicted && o.Victim.Addr == 0x200 {
			if !o.Victim.Dirty {
				t.Fatal("written block must write back dirty")
			}
			return
		}
	}
	t.Fatal("written block was never evicted")
}

func TestCacheContains(t *testing.T) {
	c := MustNewCache(smallGeo())
	if c.Contains(0x300) {
		t.Fatal("empty cache cannot contain")
	}
	c.Access(0x300, false)
	if !c.Contains(0x300) {
		t.Fatal("must contain after access")
	}
}

func TestCacheLookupsLeaveRecencyAlone(t *testing.T) {
	// Contains and Probe are side-effect free: checking the LRU block
	// between fills must not make it recent, so it is still the victim.
	g := smallGeo()
	c := MustNewCache(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	for i := 0; i < 4; i++ {
		c.Access(Addr(i)*setStride, false)
	}
	set := g.SetIndex(0)
	if v := c.Array().VictimWay(set); v != 0 {
		t.Fatalf("victim = %d before lookups, want 0", v)
	}
	if !c.Contains(0) || !c.Probe(0).Hit {
		t.Fatal("block 0 must be resident")
	}
	if v := c.Array().VictimWay(set); v != 0 {
		t.Fatalf("victim = %d after Contains/Probe, want 0", v)
	}
	if o := c.Access(4*setStride, false); !o.Evicted || o.Victim.Addr != 0 {
		t.Fatalf("conflict fill evicted %+v, want block 0", o)
	}
}

func TestCacheInvalidateReportsDirty(t *testing.T) {
	c := MustNewCache(smallGeo())
	c.Access(0x400, true)  // dirty
	c.Access(0x800, false) // clean
	if dropped, dirty := c.Invalidate(0x400); !dropped || !dirty {
		t.Fatalf("dirty line: dropped=%v dirty=%v, want true true", dropped, dirty)
	}
	if dropped, dirty := c.Invalidate(0x800); !dropped || dirty {
		t.Fatalf("clean line: dropped=%v dirty=%v, want true false", dropped, dirty)
	}
	if c.Contains(0x400) || c.Contains(0x800) {
		t.Fatal("invalidated blocks must not stay resident")
	}
	if dropped, dirty := c.Invalidate(0x400); dropped || dirty {
		t.Fatalf("absent line: dropped=%v dirty=%v, want false false", dropped, dirty)
	}
}

func TestCacheInvalidatedSlotRefillsWithoutEviction(t *testing.T) {
	// An invalidated way is reused before any LRU victim, so the next
	// conflict fill displaces nothing, even though the way was the most
	// recently used one.
	g := smallGeo()
	c := MustNewCache(g)
	setStride := Addr(g.NumSets() * g.BlockBytes)
	for i := 0; i < 4; i++ {
		c.Access(Addr(i)*setStride, true)
	}
	c.Invalidate(3 * setStride)
	if o := c.Access(4*setStride, false); o.Evicted {
		t.Fatalf("fill into a freed way evicted %+v", o.Victim)
	}
	if o := c.Access(5*setStride, false); !o.Evicted || o.Victim.Addr != 0 || !o.Victim.Dirty {
		t.Fatalf("next conflict fill evicted %+v, want dirty block 0", o)
	}
}

func TestCacheAccessProbedMatchesAccess(t *testing.T) {
	// Probe followed by AccessProbed is Access split in two: the same
	// stream through both paths yields the same outcomes.
	g := smallGeo()
	a, b := MustNewCache(g), MustNewCache(g)
	rng := mathx.NewRNG(11)
	for i := 0; i < 5000; i++ {
		addr, write := Addr(rng.Intn(1<<14)), rng.Bool(0.3)
		p := b.Probe(addr)
		want := a.Access(addr, write)
		if p.Hit != want.Hit {
			t.Fatalf("access %d: probe hit=%v, Access hit=%v", i, p.Hit, want.Hit)
		}
		if got := b.AccessProbed(p, addr, write); got != want {
			t.Fatalf("access %d (%#x): AccessProbed = %+v, Access = %+v", i, addr, got, want)
		}
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	g := smallGeo()
	c := MustNewCache(g)
	rng := mathx.NewRNG(6)
	for i := 0; i < 10000; i++ {
		c.Access(Addr(rng.Intn(1<<20)), rng.Bool(0.3))
	}
	if v := c.Array().CountValid(); v > g.NumBlocks() {
		t.Fatalf("%d valid lines exceed capacity %d", v, g.NumBlocks())
	}
}

func TestCacheQuickRecentAddressResident(t *testing.T) {
	// Property: an address accessed with no intervening accesses to its
	// set is still resident.
	g := smallGeo()
	c := MustNewCache(g)
	f := func(raw uint32) bool {
		a := Addr(raw)
		c.Access(a, false)
		return c.Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewCachePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewCache must panic on bad geometry")
		}
	}()
	MustNewCache(Geometry{})
}

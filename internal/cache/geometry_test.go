package cache

import (
	"testing"
	"testing/quick"
)

func geo64k() Geometry {
	return Geometry{CapacityBytes: 64 << 10, BlockBytes: 32, Assoc: 2}
}

func TestGeometryValidate(t *testing.T) {
	good := []Geometry{
		geo64k(),
		{CapacityBytes: 1 << 20, BlockBytes: 128, Assoc: 8},
		{CapacityBytes: 8 << 20, BlockBytes: 128, Assoc: 16},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("%+v should validate: %v", g, err)
		}
	}
	bad := []Geometry{
		{},
		{CapacityBytes: 64 << 10, BlockBytes: 33, Assoc: 2},
		{CapacityBytes: 100, BlockBytes: 32, Assoc: 2},
		{CapacityBytes: 96, BlockBytes: 32, Assoc: 2},  // 3 blocks, assoc 2
		{CapacityBytes: 192, BlockBytes: 32, Assoc: 2}, // 3 sets
		{CapacityBytes: 64 << 10, BlockBytes: 32, Assoc: 0},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%+v should be rejected", g)
		}
	}
}

func TestGeometryCounts(t *testing.T) {
	g := Geometry{CapacityBytes: 1 << 20, BlockBytes: 128, Assoc: 8}
	if g.NumBlocks() != 8192 {
		t.Fatalf("NumBlocks = %d, want 8192", g.NumBlocks())
	}
	if g.NumSets() != 1024 {
		t.Fatalf("NumSets = %d, want 1024", g.NumSets())
	}
}

func TestSetIndexTagRoundtrip(t *testing.T) {
	g := Geometry{CapacityBytes: 1 << 20, BlockBytes: 128, Assoc: 8}
	f := func(raw uint64) bool {
		a := raw % (1 << 44)
		base := a / Addr(g.BlockBytes) * Addr(g.BlockBytes)
		return g.AddrOf(g.SetIndex(a), g.Tag(a)) == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSameBlockSameSet(t *testing.T) {
	g := geo64k()
	a := Addr(0x12345678) / Addr(g.BlockBytes) * Addr(g.BlockBytes)
	for off := 0; off < g.BlockBytes; off++ {
		if g.SetIndex(a+Addr(off)) != g.SetIndex(a) || g.Tag(a+Addr(off)) != g.Tag(a) {
			t.Fatalf("offset %d changed set/tag", off)
		}
	}
}

func TestConsecutiveBlocksDifferentSets(t *testing.T) {
	g := geo64k()
	a := Addr(0)
	b := a + Addr(g.BlockBytes)
	if g.SetIndex(a) == g.SetIndex(b) {
		t.Fatal("consecutive blocks should map to consecutive sets")
	}
}

// TestIndexMatchesGeometry checks that the precomputed Index maps every
// address exactly as the Geometry it was built from.
func TestIndexMatchesGeometry(t *testing.T) {
	g := Geometry{CapacityBytes: 1 << 20, BlockBytes: 128, Assoc: 8}
	ix := g.Index()
	if ix.NumSets() != g.NumSets() || ix.Assoc() != g.Assoc {
		t.Fatalf("Index has %d sets x %d ways, geometry %d x %d",
			ix.NumSets(), ix.Assoc(), g.NumSets(), g.Assoc)
	}
	f := func(a Addr) bool {
		return ix.SetIndex(a) == g.SetIndex(a) && ix.Tag(a) == g.Tag(a) &&
			ix.BlockAddr(a) == a/Addr(g.BlockBytes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if c := MustNewCache(g); c.Geometry() != g {
		t.Fatalf("Cache.Geometry() = %+v, want %+v", c.Geometry(), g)
	}
}

// Package cache provides the generic set-associative building blocks the
// three L2 organizations (conventional, D-NUCA, NuRAPID) are assembled
// from: address geometry, true-LRU tag arrays, whole caches with
// dirty-victim writeback, and MSHR files.
package cache

import (
	"fmt"

	"nurapid/internal/mathx"
)

// Addr is a physical byte address.
type Addr = uint64

// Geometry fixes the address mapping of a set-associative structure.
type Geometry struct {
	CapacityBytes int64
	BlockBytes    int
	Assoc         int
}

// Validate reports whether the geometry is internally consistent: all
// fields positive powers of two (blocks and sets), associativity dividing
// the block count.
func (g Geometry) Validate() error {
	if g.CapacityBytes <= 0 || g.BlockBytes <= 0 || g.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", g)
	}
	if !mathx.IsPow2(int64(g.BlockBytes)) {
		return fmt.Errorf("cache: block size %d not a power of two", g.BlockBytes)
	}
	blocks := g.CapacityBytes / int64(g.BlockBytes)
	if blocks*int64(g.BlockBytes) != g.CapacityBytes {
		return fmt.Errorf("cache: capacity %d not a multiple of block size %d",
			g.CapacityBytes, g.BlockBytes)
	}
	if blocks%int64(g.Assoc) != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by associativity %d", blocks, g.Assoc)
	}
	if !mathx.IsPow2(blocks / int64(g.Assoc)) {
		return fmt.Errorf("cache: set count %d not a power of two", blocks/int64(g.Assoc))
	}
	return nil
}

// NumBlocks returns the total number of block frames.
func (g Geometry) NumBlocks() int {
	return int(g.CapacityBytes / int64(g.BlockBytes))
}

// NumSets returns the number of sets.
func (g Geometry) NumSets() int {
	return g.NumBlocks() / g.Assoc
}

// BlockAddr returns the block-granular address (byte address with the
// offset bits stripped).
func (g Geometry) BlockAddr(a Addr) Addr {
	return a / Addr(g.BlockBytes)
}

// SetIndex returns the set that address a maps to.
func (g Geometry) SetIndex(a Addr) int {
	return int(g.BlockAddr(a) % Addr(g.NumSets()))
}

// Tag returns the tag of address a.
func (g Geometry) Tag(a Addr) uint64 {
	return uint64(g.BlockAddr(a) / Addr(g.NumSets()))
}

// AddrOf reconstructs the base byte address of a block from its set and
// tag — the inverse of SetIndex/Tag, used when evicting.
func (g Geometry) AddrOf(set int, tag uint64) Addr {
	return (Addr(tag)*Addr(g.NumSets()) + Addr(set)) * Addr(g.BlockBytes)
}

// Index is the precomputed address mapping of a validated Geometry:
// block size and set count are powers of two (Validate enforces both),
// so the divisions in SetIndex/Tag reduce to shifts and masks. Hot
// paths build one Index up front instead of re-deriving set counts on
// every access; the methods are small enough to inline.
type Index struct {
	blockShift uint8
	setShift   uint8
	setMask    uint64
	sets       int
	assoc      int
}

// Index precomputes the geometry's address mapping. The geometry must
// have been validated; Index panics on a non-power-of-two block size or
// set count rather than silently mis-mapping addresses.
func (g Geometry) Index() Index {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("cache: Index on invalid geometry: %v", err))
	}
	return Index{
		blockShift: uint8(mathx.Log2(int64(g.BlockBytes))),
		setShift:   uint8(mathx.Log2(int64(g.NumSets()))),
		setMask:    uint64(g.NumSets() - 1),
		sets:       g.NumSets(),
		assoc:      g.Assoc,
	}
}

// NumSets returns the precomputed set count.
func (ix Index) NumSets() int { return ix.sets }

// Assoc returns the associativity.
func (ix Index) Assoc() int { return ix.assoc }

// BlockAddr returns the block-granular address.
//
//nurapid:hotpath
func (ix Index) BlockAddr(a Addr) Addr { return a >> ix.blockShift }

// SetIndex returns the set that address a maps to.
//
//nurapid:hotpath
func (ix Index) SetIndex(a Addr) int { return int((a >> ix.blockShift) & ix.setMask) }

// Tag returns the tag of address a.
//
//nurapid:hotpath
func (ix Index) Tag(a Addr) uint64 { return (a >> ix.blockShift) >> ix.setShift }

package cache

import "fmt"

// Line is one tag-array entry, 16 bytes. Aux is an opaque per-line
// payload for the owning organization: NuRAPID stores its forward
// pointer there, as frame id + 1 (0 is no frame), and its frame ids are
// int32 (nurapid.New rejects a geometry with more frames).
type Line struct {
	Tag   uint64
	Aux   int32
	Valid bool
	Dirty bool
}

// Array is a set-associative tag array with true-LRU replacement, the
// policy of every cache the paper models. It holds no data;
// organizations pair it with their own data-array model.
//
// The address mapping is precomputed into an Index and recency is a
// per-line last-use stamp, so a steady-state Lookup/Touch/Fill cycle
// performs no divisions.
type Array struct {
	geo    Geometry
	idx    Index
	lines  []Line
	clock  uint64
	stamps []uint64 // last-use stamp per line; the LRU victim has the smallest
}

// The process-wide free lists behind every Array's storage.
var (
	lineSpares  Spares[Line]
	stampSpares Spares[uint64]
)

// NewArray builds a tag array, cold. Its storage comes from a
// process-wide free list (ReleaseArrays) when a spare of its size is
// held.
func NewArray(geo Geometry) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Array{
		geo:    geo,
		idx:    geo.Index(),
		lines:  lineSpares.Get(geo.NumBlocks()),
		stamps: stampSpares.Get(geo.NumBlocks()),
	}, nil
}

// ReleaseArrays hands the arrays' storage back to the process-wide free
// list, as one job's release, and drops it from the arrays: any later
// use of one panics rather than reading another job's lines. Arrays
// already released are skipped.
func ReleaseArrays(arrs ...*Array) {
	lines := make([][]Line, 0, len(arrs))
	stamps := make([][]uint64, 0, len(arrs))
	for _, a := range arrs {
		if a == nil || a.lines == nil {
			continue
		}
		lines, stamps = append(lines, a.lines), append(stamps, a.stamps)
		a.lines, a.stamps, a.clock = nil, nil, 0
	}
	lineSpares.Put(lines...)
	stampSpares.Put(stamps...)
}

// MustNewArray is NewArray that panics on configuration errors; for
// static configurations validated by tests.
func MustNewArray(geo Geometry) *Array {
	a, err := NewArray(geo)
	if err != nil {
		panic(err)
	}
	return a
}

// Geometry returns the array's address mapping.
func (a *Array) Geometry() Geometry { return a.geo }

// Index returns the precomputed address mapping, for owners that share
// the array's set/tag math on their own hot paths.
func (a *Array) Index() Index { return a.idx }

// Lookup finds addr in its set. On a hit it returns the way and true; it
// does not update recency (callers decide whether a probe counts as use).
//
//nurapid:hotpath
func (a *Array) Lookup(addr Addr) (way int, hit bool) {
	block := addr >> a.idx.blockShift
	set := int(block & a.idx.setMask)
	tag := block >> a.idx.setShift
	base := set * a.idx.assoc
	for w := 0; w < a.idx.assoc; w++ {
		if l := &a.lines[base+w]; l.Valid && l.Tag == tag {
			return w, true
		}
	}
	return -1, false
}

// FindTag locates tag within set — Lookup with the address math hoisted,
// for owners that already computed set and tag from a shared Index.
//
//nurapid:hotpath
func (a *Array) FindTag(set int, tag uint64) (way int, hit bool) {
	base := set * a.idx.assoc
	for w := 0; w < a.idx.assoc; w++ {
		if l := &a.lines[base+w]; l.Valid && l.Tag == tag {
			return w, true
		}
	}
	return -1, false
}

// Touch records a use of (set, way) for replacement.
//
//nurapid:hotpath
func (a *Array) Touch(set, way int) {
	a.clock++
	a.stamps[set*a.idx.assoc+way] = a.clock
}

// VictimWay picks the way to evict from set: an invalid way if there is
// one, else the least recently used.
//
//nurapid:hotpath
func (a *Array) VictimWay(set int) int { return a.VictimWayIn(set, 0, a.idx.assoc) }

// VictimWayIn is VictimWay restricted to ways [lo, hi) of set: the first
// invalid way in the range, else the range's least recently used (the
// first on equal stamps). Organizations that bind ways to latency
// groups (D-NUCA) pick victims within one group.
//
//nurapid:hotpath
func (a *Array) VictimWayIn(set, lo, hi int) int {
	base := set * a.idx.assoc
	for w := lo; w < hi; w++ {
		if !a.lines[base+w].Valid {
			return w
		}
	}
	victim, best := lo, a.stamps[base+lo]
	for w := lo + 1; w < hi; w++ {
		if s := a.stamps[base+w]; s < best {
			victim, best = w, s
		}
	}
	return victim
}

// Swap exchanges the lines at ways w1 and w2 of set together with their
// recency stamps, so each block keeps its own last use and the victim
// order follows the blocks, not the ways.
//
//nurapid:hotpath
func (a *Array) Swap(set, w1, w2 int) {
	i, j := set*a.idx.assoc+w1, set*a.idx.assoc+w2
	a.lines[i], a.lines[j] = a.lines[j], a.lines[i]
	a.stamps[i], a.stamps[j] = a.stamps[j], a.stamps[i]
}

// Set returns the lines of one set, way by way. The slice aliases the
// array: it is a view for owners that scan a whole set on their hot
// path (D-NUCA's partial-tag search), and writes through it change the
// array.
//
//nurapid:hotpath
func (a *Array) Set(set int) []Line {
	base := set * a.idx.assoc
	return a.lines[base : base+a.idx.assoc : base+a.idx.assoc]
}

// Line returns the entry at (set, way) for inspection or mutation.
//
//nurapid:hotpath
func (a *Array) Line(set, way int) *Line {
	if set < 0 || set >= a.idx.sets || way < 0 || way >= a.idx.assoc {
		panic(fmt.Sprintf("cache: line (%d,%d) out of range", set, way))
	}
	return &a.lines[set*a.idx.assoc+way]
}

// Fill installs addr into (set, way), marking it valid and clean, and
// touches it. It returns the line for further decoration (Aux, Dirty).
//
//nurapid:hotpath
func (a *Array) Fill(addr Addr, way int) *Line {
	block := addr >> a.idx.blockShift
	set := int(block & a.idx.setMask)
	l := a.Line(set, way)
	l.Valid = true
	l.Dirty = false
	l.Tag = block >> a.idx.setShift
	l.Aux = 0
	a.Touch(set, way)
	return l
}

// Invalidate clears (set, way).
//
//nurapid:hotpath
func (a *Array) Invalidate(set, way int) {
	l := a.Line(set, way)
	*l = Line{}
}

// CountValid returns the number of valid lines (for tests/metrics).
func (a *Array) CountValid() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid {
			n++
		}
	}
	return n
}

// Eviction describes a block pushed out of a cache.
type Eviction struct {
	Addr  Addr // base byte address of the victim block
	Dirty bool
}

// Outcome summarizes one access to a Cache. It is a plain value — the
// steady-state access path allocates nothing — so the displaced block
// is reported as an Evicted flag plus an inline Victim rather than a
// heap-allocated pointer.
type Outcome struct {
	Hit     bool
	Evicted bool     // a valid block was displaced
	Victim  Eviction // the displaced block; meaningful only when Evicted
}

// Cache is a complete single-level cache: tag array plus fill/writeback
// behavior, used for the L1s and the baseline L2/L3. The NUCA
// organizations compose an Array instead, with their own fill and
// placement rules.
type Cache struct {
	arr *Array
}

// NewCache builds a cache with the given geometry.
func NewCache(geo Geometry) (*Cache, error) {
	arr, err := NewArray(geo)
	if err != nil {
		return nil, err
	}
	return &Cache{arr: arr}, nil
}

// MustNewCache is NewCache that panics on configuration errors.
func MustNewCache(geo Geometry) *Cache {
	c, err := NewCache(geo)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache's address mapping.
func (c *Cache) Geometry() Geometry { return c.arr.Geometry() }

// Array exposes the underlying tag array (for tests and metrics).
//
//nurapid:hotpath
func (c *Cache) Array() *Array { return c.arr }

// Probe is one tag lookup of a Cache: the set of an address and the way
// holding it, if resident. A caller that must know whether an access
// will hit before making it (the core's MSHR pre-check) probes once and
// hands the probe to AccessProbed, instead of looking the tags up twice.
type Probe struct {
	set, way int
	Hit      bool
}

// Probe looks addr up without side effects.
//
//nurapid:hotpath
func (c *Cache) Probe(addr Addr) Probe {
	way, hit := c.arr.Lookup(addr)
	return Probe{set: c.arr.idx.SetIndex(addr), way: way, Hit: hit}
}

// Access performs a read or write of addr with allocate-on-miss and
// writeback of dirty victims.
//
//nurapid:hotpath
func (c *Cache) Access(addr Addr, write bool) Outcome {
	way, hit := c.arr.Lookup(addr)
	return c.AccessProbed(Probe{set: c.arr.idx.SetIndex(addr), way: way, Hit: hit}, addr, write)
}

// AccessProbed is Access with its tag lookup already made: p must be
// c.Probe(addr), with no change to the cache in between.
//
//nurapid:hotpath
func (c *Cache) AccessProbed(p Probe, addr Addr, write bool) Outcome {
	if p.Hit {
		c.arr.Touch(p.set, p.way)
		if write {
			c.arr.Line(p.set, p.way).Dirty = true
		}
		return Outcome{Hit: true}
	}
	way := c.arr.VictimWay(p.set)
	var out Outcome
	if l := c.arr.Line(p.set, way); l.Valid {
		out.Evicted = true
		out.Victim = Eviction{Addr: c.geoAddrOf(p.set, l.Tag), Dirty: l.Dirty}
	}
	l := c.arr.Fill(addr, way)
	if write {
		l.Dirty = true
	}
	return out
}

// geoAddrOf reconstructs a victim's base address from the precomputed
// index (shift/or instead of the Geometry method's multiplications by
// recomputed set counts).
func (c *Cache) geoAddrOf(set int, tag uint64) Addr {
	ix := &c.arr.idx
	return ((tag << ix.setShift) | uint64(set)) << ix.blockShift
}

// Invalidate drops addr from the cache when resident, reporting whether
// a line was dropped and whether it was dirty. The dropped line is not
// written back: the caller decides what a stale copy means (internal/cmp
// uses this for its coherence-lite shoot-down, where the writer's copy
// supersedes the invalidated one).
//
//nurapid:hotpath
func (c *Cache) Invalidate(addr Addr) (dropped, dirty bool) {
	way, hit := c.arr.Lookup(addr)
	if !hit {
		return false, false
	}
	set := c.arr.idx.SetIndex(addr)
	dirty = c.arr.Line(set, way).Dirty
	c.arr.Invalidate(set, way)
	return true, dirty
}

// Contains reports whether addr is currently resident (no side effects).
//
//nurapid:hotpath
func (c *Cache) Contains(addr Addr) bool {
	_, hit := c.arr.Lookup(addr)
	return hit
}

// Package uca implements the uniform-access cache organizations: the
// conventional L2/L3 hierarchy the paper uses as its base case, and the
// single-level uniform cache that doubles as the paper's "ideal" bound
// (every hit served at the fastest d-group's latency).
package uca

import (
	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// tagOnlyNJ is the energy of probing just the centralized tag array on a
// sequential tag-data access that misses. The paper's Table 2 bundles
// "tag + access"; the tag-only share of those figures is small.
const tagOnlyNJ = 0.05

// BlockBytes is the block size of the paper's base hierarchy and ideal
// bound (Table 1: 128-B blocks). Callers building the backing memory
// model must match it.
const BlockBytes = 128

// Uniform is one monolithic cache level with a single uniform access
// latency, sequential tag-data access, and allocate-on-miss with
// writeback. It implements memsys.LowerLevel.
type Uniform struct {
	name      string
	c         *cache.Cache
	hitLat    int64 // full sequential tag+data latency
	tagLat    int64 // tag-only latency (miss detection point)
	occupancy int64 // port time per access
	accessNJ  float64
	port      memsys.Port
	mem       *memsys.Memory
	dist      *stats.Distribution
	ctrs      stats.Counters
	hot       uniformHot
	energy    float64
	probe     obs.Probe
}

// uniformHot holds the per-access counters as plain fields; Counters()
// materializes them with the same presence semantics as Inc (a name
// exists iff its count is non-zero).
type uniformHot struct {
	accesses   int64
	misses     int64
	writebacks int64
}

// NewIdeal builds the paper's ideal bound: an 8-MB, 8-way cache in which
// every hit completes at the fastest 4-d-group latency (14 cycles).
func NewIdeal(m *cacti.Model, mem *memsys.Memory) *Uniform {
	return &Uniform{
		name:      "ideal",
		c:         cache.MustNewCache(cache.Geometry{CapacityBytes: 8 << 20, BlockBytes: BlockBytes, Assoc: 8}),
		hitLat:    14,
		tagLat:    int64(m.TagCycles),
		occupancy: 4, // pipelined single port, like NuRAPID's
		accessNJ:  m.DataAccessNJ(2),
		mem:       mem,
		dist:      stats.NewDistribution("ideal"),
	}
}

// Release hands the cache's tag array back to the process-wide free
// list (memsys.Releaser); any later access panics.
func (u *Uniform) Release() { cache.ReleaseArrays(u.c.Array()) }

// Name implements memsys.LowerLevel.
func (u *Uniform) Name() string { return u.name }

// SetProbe attaches an observability probe (obs.Probeable). Probes only
// observe; a nil probe restores the zero-overhead fast path. The
// uniform cache is a single latency group, so every hit and placement
// reports group 0.
func (u *Uniform) SetProbe(p obs.Probe) { u.probe = p }

// Access implements memsys.LowerLevel. Probe events follow the
// canonical per-access order (obs package doc): Access, then Hit, or
// Miss followed by Evict (when a valid victim was displaced) and Place.
//
//nurapid:hotpath
func (u *Uniform) Access(req memsys.Req) memsys.AccessResult {
	now, addr, write := req.Now, req.Addr, req.Write
	start := u.port.Acquire(now, u.occupancy)
	u.hot.accesses++
	if u.probe != nil {
		u.probe.Emit(obs.Access(now, addr, write, req.Core))
	}
	out := u.c.Access(addr, write)
	if out.Hit {
		u.dist.AddHit(0)
		u.energy += u.accessNJ
		if u.probe != nil {
			u.probe.Emit(obs.Hit(now, 0, start+u.hitLat-now))
		}
		return memsys.AccessResult{Hit: true, DoneAt: start + u.hitLat, Group: 0}
	}
	u.dist.AddMiss()
	u.hot.misses++
	if u.probe != nil {
		u.probe.Emit(obs.Miss(now, addr))
	}
	if out.Evicted {
		if u.probe != nil {
			u.probe.Emit(obs.Evict(now, 0, out.Victim.Dirty))
		}
		if out.Victim.Dirty {
			u.hot.writebacks++
			u.energy += u.accessNJ // victim read for writeback
			u.mem.Write()
		}
	}
	u.energy += tagOnlyNJ  // miss discovered in the tag array
	u.energy += u.accessNJ // fill write when data returns
	if u.probe != nil {
		u.probe.Emit(obs.Place(now, 0, 0))
	}
	done := u.mem.Read(start + u.tagLat)
	return memsys.AccessResult{Hit: false, DoneAt: done, Group: -1}
}

// Distribution implements memsys.LowerLevel.
func (u *Uniform) Distribution() *stats.Distribution { return u.dist }

// EnergyNJ implements memsys.LowerLevel.
func (u *Uniform) EnergyNJ() float64 { return u.energy }

// Counters implements memsys.LowerLevel. Hot-path counts are
// materialized from plain fields; names appear only when non-zero.
func (u *Uniform) Counters() *stats.Counters {
	if u.hot.accesses != 0 {
		u.ctrs.Set("accesses", u.hot.accesses)
	}
	if u.hot.misses != 0 {
		u.ctrs.Set("misses", u.hot.misses)
	}
	if u.hot.writebacks != 0 {
		u.ctrs.Set("writebacks", u.hot.writebacks)
	}
	return &u.ctrs
}

// Cache exposes the underlying cache (tests, occupancy checks).
func (u *Uniform) Cache() *cache.Cache { return u.c }

// Hierarchy is the paper's base case (Table 1): a 1-MB 8-way 11-cycle L2
// backed by an 8-MB 8-way 43-cycle L3, both with 128-B blocks, backed by
// main memory. It implements memsys.LowerLevel; the distribution's two
// categories are L2 hits and L3 hits.
type Hierarchy struct {
	l2, l3         *cache.Cache
	l2Lat, l3Lat   int64
	l2Tag, l3Tag   int64
	l2Port, l3Port memsys.Port
	l2NJ, l3NJ     float64
	l3Idx          cache.Index
	mem            *memsys.Memory
	dist           *stats.Distribution
	ctrs           stats.Counters
	hot            hierarchyHot
	energy         float64
	probe          obs.Probe
}

// hierarchyHot holds the per-access counters as plain fields; Counters()
// materializes them with the same presence semantics as Inc (a name
// exists iff its count is non-zero).
type hierarchyHot struct {
	accesses     int64
	l2Misses     int64
	l3Hits       int64
	misses       int64
	l2Writebacks int64
	l3Writebacks int64
}

// NewHierarchy builds the base L2/L3 configuration with energies from the
// cacti model.
func NewHierarchy(m *cacti.Model, mem *memsys.Memory) *Hierarchy {
	l2 := cache.MustNewCache(cache.Geometry{CapacityBytes: 1 << 20, BlockBytes: BlockBytes, Assoc: 8})
	l3 := cache.MustNewCache(cache.Geometry{CapacityBytes: 8 << 20, BlockBytes: BlockBytes, Assoc: 8})
	return &Hierarchy{
		l2:    l2,
		l3:    l3,
		l3Idx: l3.Array().Index(),
		l2Lat: 11, l3Lat: 43,
		l2Tag: 6, l3Tag: int64(m.TagCycles),
		l2NJ: m.UniformCacheNJ(1),
		l3NJ: m.UniformCacheNJ(8),
		mem:  mem,
		dist: stats.NewDistribution("L2", "L3"),
	}
}

// Release hands both levels' tag arrays back to the process-wide free
// list (memsys.Releaser); any later access panics.
func (h *Hierarchy) Release() { cache.ReleaseArrays(h.l2.Array(), h.l3.Array()) }

// Name implements memsys.LowerLevel.
func (h *Hierarchy) Name() string { return "base-l2l3" }

// SetProbe attaches an observability probe (obs.Probeable). Probes only
// observe; a nil probe restores the zero-overhead fast path. The
// hierarchy reports the L2 as group 0 and the L3 as group 1, matching
// its access distribution.
func (h *Hierarchy) SetProbe(p obs.Probe) { h.probe = p }

// Access implements memsys.LowerLevel. Probe events follow the
// canonical per-access order (obs package doc) at each level: the L2
// reports Evict then Place around its allocation (there is no per-level
// miss event; KindMiss means a miss to memory), and the L3 reports Miss,
// Evict, Place on the outermost miss path.
//
//nurapid:hotpath
func (h *Hierarchy) Access(req memsys.Req) memsys.AccessResult {
	now, addr, write := req.Now, req.Addr, req.Write
	start := h.l2Port.Acquire(now, 4)
	h.hot.accesses++
	if h.probe != nil {
		h.probe.Emit(obs.Access(now, addr, write, req.Core))
	}
	o2 := h.l2.Access(addr, write)
	if o2.Hit {
		h.dist.AddHit(0)
		h.energy += h.l2NJ
		if h.probe != nil {
			h.probe.Emit(obs.Hit(now, 0, start+h.l2Lat-now))
		}
		return memsys.AccessResult{Hit: true, DoneAt: start + h.l2Lat, Group: 0}
	}
	h.hot.l2Misses++
	if o2.Evicted {
		if h.probe != nil {
			h.probe.Emit(obs.Evict(now, 0, o2.Victim.Dirty))
		}
		if o2.Victim.Dirty {
			h.writebackToL3(o2.Victim.Addr)
		}
	}
	h.energy += tagOnlyNJ // L2 miss discovered in its tags
	h.energy += h.l2NJ    // eventual L2 fill write
	if h.probe != nil {
		h.probe.Emit(obs.Place(now, 0, 0)) // L2 allocates on miss
	}

	start3 := h.l3Port.Acquire(start+h.l2Tag, 8)
	o3 := h.l3.Access(addr, write)
	if o3.Hit {
		h.dist.AddHit(1)
		h.energy += h.l3NJ
		h.hot.l3Hits++
		if h.probe != nil {
			h.probe.Emit(obs.Hit(now, 1, start3+h.l3Lat-now))
		}
		return memsys.AccessResult{Hit: true, DoneAt: start3 + h.l3Lat, Group: 1}
	}
	h.dist.AddMiss()
	h.hot.misses++
	if h.probe != nil {
		h.probe.Emit(obs.Miss(now, addr))
	}
	if o3.Evicted {
		if h.probe != nil {
			h.probe.Emit(obs.Evict(now, 1, o3.Victim.Dirty))
		}
		if o3.Victim.Dirty {
			h.hot.l3Writebacks++
			h.energy += h.l3NJ
			h.mem.Write()
		}
	}
	h.energy += tagOnlyNJ // L3 miss discovered in its tags
	h.energy += h.l3NJ    // eventual L3 fill write
	if h.probe != nil {
		h.probe.Emit(obs.Place(now, 1, 0)) // L3 allocates on miss
	}
	done := h.mem.Read(start3 + h.l3Tag)
	return memsys.AccessResult{Hit: false, DoneAt: done, Group: -1}
}

// writebackToL3 retires a dirty L2 victim: it lands in the L3 when the
// block is still resident there (the common, mostly-inclusive case) and
// otherwise goes to memory.
//
// A writeback that hits marks the resident line dirty but deliberately
// does NOT refresh its recency: the paper's base hierarchy treats
// writebacks as non-uses (the block was evicted from the L2 precisely
// because the processor stopped using it), so only demand accesses
// influence L3 replacement. TestWritebackToL3DoesNotRefreshRecency pins
// this choice.
func (h *Hierarchy) writebackToL3(addr uint64) {
	h.hot.l2Writebacks++
	h.energy += h.l2NJ // victim read
	set := h.l3Idx.SetIndex(addr)
	if way, hit := h.l3.Array().FindTag(set, h.l3Idx.Tag(addr)); hit {
		h.l3.Array().Line(set, way).Dirty = true
		h.energy += h.l3NJ
		return
	}
	h.mem.Write()
}

// Distribution implements memsys.LowerLevel.
func (h *Hierarchy) Distribution() *stats.Distribution { return h.dist }

// EnergyNJ implements memsys.LowerLevel.
func (h *Hierarchy) EnergyNJ() float64 { return h.energy }

// Counters implements memsys.LowerLevel. Hot-path counts are
// materialized from plain fields; names appear only when non-zero.
func (h *Hierarchy) Counters() *stats.Counters {
	set := func(name string, v int64) {
		if v != 0 {
			h.ctrs.Set(name, v)
		}
	}
	set("accesses", h.hot.accesses)
	set("l2_misses", h.hot.l2Misses)
	set("l3_hits", h.hot.l3Hits)
	set("misses", h.hot.misses)
	set("l2_writebacks", h.hot.l2Writebacks)
	set("l3_writebacks", h.hot.l3Writebacks)
	return &h.ctrs
}

// L2 exposes the first level (tests).
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// L3 exposes the second level (tests).
func (h *Hierarchy) L3() *cache.Cache { return h.l3 }

var (
	_ memsys.LowerLevel = (*Uniform)(nil)
	_ memsys.LowerLevel = (*Hierarchy)(nil)
)

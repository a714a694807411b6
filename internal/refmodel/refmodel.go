// Package refmodel is the executable specification of the NuRAPID cache:
// a second, independent implementation of the same behavioral contract as
// internal/nurapid, written for readability instead of speed and used as
// the oracle of the differential test harness (see the difftest
// subdirectory and DESIGN.md "Reference model & differential testing").
//
// Where internal/nurapid earns O(1) accesses with intrusive recency
// lists, packed frame metadata, and forward/reverse pointers threaded
// through tag Aux words, this model is a direct transcription of the
// paper's rules onto the simplest possible state: one Go map from block
// address to a block struct, one slice of frame slots per d-group, and
// monotonic timestamps with O(n) scans standing in for every LRU list.
// Any divergence between the two — per-access hit/miss outcome, serving
// d-group, completion cycle, counters, energy, or occupancy — is a bug in
// one of them.
//
// Two low-level disciplines are deliberately part of the shared contract
// rather than implementation detail, because under RandomDistance the
// *identity* of frames determines which blocks demote and therefore all
// downstream behavior:
//
//   - Free-list order. Each (d-group, partition) free list is a LIFO
//     stack initialized with frame ids ascending: the first allocation of
//     partition p returns frame p*partSize, and the most recently freed
//     frame is reused first. internal/nurapid's intrusive free chain
//     implements exactly this discipline.
//
//   - RNG draws. Random distance replacement performs exactly one
//     rng.Intn(partSize) draw per victim selection, in ripple order
//     (fastest d-group first), from a mathx.NewRNG(cfg.Seed) stream, and
//     nothing else consumes that stream.
//
// The model reuses the repository's parameter sources (cacti latencies
// and energies over the L-shaped floorplan, the memsys memory and port
// models, the address geometry) so that a divergence always points at the
// cache mechanics, never at an independently re-derived constant.
package refmodel

import (
	"fmt"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/floorplan"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// accessIssueInterval and movementOccupancy mirror the port-timing
// constants of internal/nurapid: the pipelined single port accepts an
// access every 4 cycles, and each demotion link holds it for a victim
// read plus an incoming write of 2 cycles each.
const (
	accessIssueInterval = 4
	movementOccupancy   = 2
)

// Fault selects a deliberate deviation from the specification. Faults
// exist only to prove the differential harness works: injecting one into
// the reference model must make the fuzzer report (and shrink) a
// divergence against the real implementation. They are never enabled
// outside harness self-tests.
type Fault int

const (
	// NoFault is the faithful specification.
	NoFault Fault = iota
	// FaultSkipDemoteHitsReset models forgetting the "hits since arrival"
	// reset when a block is installed over a distance-replacement victim:
	// the block keeps its stale hit count, so with a promotion trigger
	// above 1 it is promoted too early after a demotion.
	FaultSkipDemoteHitsReset
	// FaultDeadOnArrivalInverted models wiring the dead-on-arrival
	// routing backwards: under nurapid.DeadOnArrival, predicted-dead
	// fills take the normal fastest-group demotion ripple and
	// predicted-live fills install into the slowest free frame — i.e.
	// every fill lands in the wrong target d-group.
	FaultDeadOnArrivalInverted
)

// block is everything the specification knows about one resident block.
// The two stamps implement the two independent recency orders of the
// paper: setStamp orders blocks within a tag set (data replacement,
// i.e. eviction), distStamp orders blocks within a d-group partition
// (distance replacement, i.e. demotion).
type block struct {
	key   uint64 // block address: byte address / BlockBytes
	set   int32
	dirty bool

	group int   // d-group currently holding the block
	frame int32 // frame within that d-group

	hits      int    // hits since arriving in the current d-group, saturating at 255
	setStamp  uint64 // last demand use, for set-LRU eviction
	distStamp uint64 // last use or (re)placement, for LRU distance replacement
}

// Cache is the reference NuRAPID model. It implements memsys.LowerLevel
// with the same observable behavior as nurapid.Cache built from the same
// Config, cacti model, and an identically parameterized memory.
type Cache struct {
	cfg nurapid.Config
	geo cache.Geometry

	latency  []int64   // full serve latency per d-group, tag included
	accessNJ []float64 // energy per data-array access per d-group
	tagLat   int64
	tagNJ    float64
	memoNJ   float64 // energy credited back per memoized (probe-free) hit

	blocks map[uint64]*block // resident blocks by block address
	frames [][]*block        // frames[g][f]: occupant of frame f in d-group g, nil when free
	free   [][][]int32       // free[g][p]: LIFO stack of free frame ids, top at index 0

	// pred is non-nil iff a predictive policy is configured; memo maps a
	// set to the block key of its most recent access (Memoize only).
	pred *refPredictor
	memo map[int]uint64

	framesPerGroup int
	nParts         int
	partSize       int
	tick           uint64 // monotonic stamp source for both recency orders

	port  memsys.Port
	mem   *memsys.Memory
	rng   *mathx.RNG
	probe obs.Probe
	fault Fault

	dist          *stats.Distribution
	ctrs          stats.Counters
	groupAccesses []int64
	energy        float64
}

// New builds the reference model. It accepts and rejects exactly the
// configurations nurapid.New does — configuration legality is part of the
// specification — with latencies and energies derived from the same cacti
// model and L-shaped floorplan. Config.Audit is ignored: the whole model
// is its own auditor.
func New(cfg nurapid.Config, m *cacti.Model, mem *memsys.Memory) (*Cache, error) {
	geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumDGroups <= 0 || geo.NumBlocks()%cfg.NumDGroups != 0 {
		return nil, fmt.Errorf("refmodel: %d blocks do not divide into %d d-groups",
			geo.NumBlocks(), cfg.NumDGroups)
	}
	totalMB := int(cfg.CapacityBytes >> 20)
	if int64(totalMB)<<20 != cfg.CapacityBytes || totalMB%cfg.NumDGroups != 0 {
		return nil, fmt.Errorf("refmodel: capacity %d B does not split into %d whole-MB d-groups",
			cfg.CapacityBytes, cfg.NumDGroups)
	}
	framesPerGroup := geo.NumBlocks() / cfg.NumDGroups

	var nParts, partSize int
	switch cfg.Placement {
	case nurapid.DistanceAssociative:
		if cfg.RestrictFrames > 0 {
			if framesPerGroup%cfg.RestrictFrames != 0 {
				return nil, fmt.Errorf("refmodel: %d frames per d-group not divisible by restriction %d",
					framesPerGroup, cfg.RestrictFrames)
			}
			nParts, partSize = framesPerGroup/cfg.RestrictFrames, cfg.RestrictFrames
			if geo.NumSets()%nParts != 0 {
				// Else some partition has more tags than frames, and a
				// demotion chain can run out of d-groups.
				return nil, fmt.Errorf("refmodel: %d sets do not spread evenly over %d partitions of %d frames",
					geo.NumSets(), nParts, cfg.RestrictFrames)
			}
		} else {
			nParts, partSize = 1, framesPerGroup
		}
	case nurapid.SetAssociative:
		if cfg.RestrictFrames > 0 {
			return nil, fmt.Errorf("refmodel: RestrictFrames %d is incompatible with set-associative placement (frames are already restricted to the set)",
				cfg.RestrictFrames)
		}
		if cfg.Assoc%cfg.NumDGroups != 0 {
			return nil, fmt.Errorf("refmodel: set-associative placement needs assoc %d divisible by %d d-groups",
				cfg.Assoc, cfg.NumDGroups)
		}
		nParts, partSize = geo.NumSets(), cfg.Assoc/cfg.NumDGroups
	default:
		return nil, fmt.Errorf("refmodel: unknown placement %v", cfg.Placement)
	}
	if cfg.PromoteHits < 0 || cfg.PromoteHits > 200 {
		// Mirrors nurapid.New: the hardware hit counter is 8 bits and
		// saturates at 255, so larger screens are unrepresentable.
		return nil, fmt.Errorf("refmodel: promotion trigger %d outside [0, 200] (the per-frame hit counter saturates at 255 and cannot represent larger screens)", cfg.PromoteHits)
	}

	plan := floorplan.NewLShapedPlan(totalMB, cfg.NumDGroups)
	lats := m.DGroupLatencies(plan)
	energies := m.DGroupEnergies(plan)

	c := &Cache{
		cfg:            cfg,
		geo:            geo,
		latency:        make([]int64, cfg.NumDGroups),
		accessNJ:       append([]float64(nil), energies...),
		tagLat:         int64(m.TagCycles),
		tagNJ:          m.TagProbeNJ,
		memoNJ:         m.TagProbeNJ,
		blocks:         make(map[uint64]*block),
		frames:         make([][]*block, cfg.NumDGroups),
		free:           make([][][]int32, cfg.NumDGroups),
		framesPerGroup: framesPerGroup,
		nParts:         nParts,
		partSize:       partSize,
		mem:            mem,
		rng:            mathx.NewRNG(cfg.Seed),
		groupAccesses:  make([]int64, cfg.NumDGroups),
	}
	labels := make([]string, cfg.NumDGroups)
	for g := 0; g < cfg.NumDGroups; g++ {
		labels[g] = fmt.Sprintf("dgroup-%d", g)
		c.latency[g] = int64(lats[g])
		c.frames[g] = make([]*block, framesPerGroup)
		c.free[g] = make([][]int32, nParts)
		for p := 0; p < nParts; p++ {
			// The pinned free-list discipline: ascending frame ids, top of
			// stack first.
			list := make([]int32, partSize)
			for i := range list {
				list[i] = int32(p*partSize + i)
			}
			c.free[g][p] = list
		}
	}
	c.dist = stats.NewDistribution(labels...)
	if cfg.Promotion == nurapid.PredictiveBypass || cfg.Distance == nurapid.DeadOnArrival {
		c.pred = newRefPredictor(cfg.Assoc)
	}
	if cfg.Memoize {
		c.memo = make(map[int]uint64)
	}
	return c, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg nurapid.Config, m *cacti.Model, mem *memsys.Memory) *Cache {
	c, err := New(cfg, m, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements memsys.LowerLevel.
func (c *Cache) Name() string {
	return fmt.Sprintf("refmodel-%dg-%s", c.cfg.NumDGroups, c.cfg.Promotion)
}

// Config returns the model's configuration.
func (c *Cache) Config() nurapid.Config { return c.cfg }

// SetProbe attaches an observability probe (obs.Probeable). The model
// emits the same event stream, in the same canonical order, as the real
// implementation.
func (c *Cache) SetProbe(p obs.Probe) { c.probe = p }

// InjectFault switches the model to a deliberately wrong variant of the
// specification. Harness self-tests only.
func (c *Cache) InjectFault(f Fault) { c.fault = f }

// nextTick returns a fresh monotonic stamp. Both recency orders draw from
// the one counter; each only ever compares its own stamps, so sharing the
// source is safe and keeps "later" unambiguous.
func (c *Cache) nextTick() uint64 {
	c.tick++
	return c.tick
}

// partition maps a block's set to its frame partition, identically in
// every d-group (paper Sec. 2.4.3): everything in one partition when
// placement is unrestricted, one partition per set when set-associative,
// set modulo partition count under a pointer restriction.
func (c *Cache) partition(set int) int {
	if c.nParts == 1 {
		return 0
	}
	if c.cfg.Placement == nurapid.SetAssociative {
		return set
	}
	return set % c.nParts
}

// chargeAccess records one data-array access in d-group g: a serve, a
// swap read/write, or a fill.
func (c *Cache) chargeAccess(g int) {
	c.groupAccesses[g]++
	c.energy += c.accessNJ[g]
}

// Access implements memsys.LowerLevel.
//
//nurapid:coldpath
func (c *Cache) Access(req memsys.Req) memsys.AccessResult {
	now, addr, write := req.Now, req.Addr, req.Write
	c.ctrs.Inc("accesses")
	if c.probe != nil {
		c.probe.Emit(obs.Access(now, addr, write, req.Core))
	}
	key := c.geo.BlockAddr(addr)
	// Predict before observe: the prediction for this access must not
	// see the access itself, or sampled and non-sampled sets would apply
	// different policies to identical streams.
	predictedDead := false
	if c.pred != nil {
		predictedDead = c.pred.predictDead(key)
		c.pred.observe(c.geo.SetIndex(addr), key)
	}
	if b, ok := c.blocks[key]; ok {
		return c.hit(now, b, write, predictedDead)
	}
	return c.miss(now, addr, write, predictedDead)
}

// hit serves a resident block: refresh both recency orders, bump the
// saturating hit counter, charge the serving d-group, and apply the
// promotion policy. The result reports the d-group that served the hit,
// even when the block is promoted away in the same access.
func (c *Cache) hit(now int64, b *block, write, predictedDead bool) memsys.AccessResult {
	// Way memoization: a repeat access to the set's most recent block
	// skips the sequential tag probe and earns the probe energy back. A
	// memo entry is never stale — promotion, demotion, and swaps move
	// data frames but leave the block's tag way untouched, and evicting
	// the memoized block requires a miss in this set, which re-points
	// the memo at the incoming block.
	memoized := false
	if c.cfg.Memoize {
		last, ok := c.memo[int(b.set)]
		memoized = ok && last == b.key
	}
	b.setStamp = c.nextTick() // a demand use, for set-LRU eviction
	if write {
		b.dirty = true
	}
	g := b.group
	b.distStamp = c.nextTick() // and a use for distance replacement
	if b.hits < 255 {
		b.hits++ // the hardware counter is 8 bits and saturates
	}

	ripple := c.port.Ripple(now)
	start := c.port.Acquire(now, accessIssueInterval)
	done := start + c.latency[g]
	c.chargeAccess(g)
	if memoized {
		c.ctrs.Inc("memo_hits")
		c.energy -= c.memoNJ
	}
	c.dist.AddHit(g)
	if c.probe != nil {
		c.probe.Emit(obs.Hit(now, g, done-now).Stamp(start-now, ripple))
	}

	// Promotion (paper Sec. 2.4.1): after the trigger-th hit since
	// arriving in its d-group, a non-fastest block moves closer.
	trigger := 1
	if c.cfg.PromoteHits > 1 {
		trigger = c.cfg.PromoteHits
	}
	switch c.cfg.Promotion {
	case nurapid.NextFastest:
		if g > 0 && b.hits >= trigger {
			c.promote(now, b, g-1)
		}
	case nurapid.Fastest:
		if g > 0 && b.hits >= trigger {
			c.promote(now, b, 0)
		}
	case nurapid.PredictiveBypass:
		if predictedDead {
			// Promotion bypass, with the saturating-counter interaction
			// pinned: a bypassed hit RESETS the block's hit counter to
			// zero rather than letting it keep saturating, so a block
			// whose prediction later flips back to live must earn a full
			// PromoteHits screen of fresh hits before promoting — it can
			// never mass-promote off a counter that quietly saturated at
			// 255 while every hit was being bypassed.
			b.hits = 0
			c.ctrs.Inc("bypasses")
			if c.probe != nil {
				c.probe.Emit(obs.Bypass(now, g))
			}
		} else if g > 0 && b.hits >= trigger {
			c.promote(now, b, g-1)
		}
	}
	if c.cfg.Memoize {
		c.memo[int(b.set)] = b.key
	}
	return memsys.AccessResult{Hit: true, DoneAt: done, Group: g}
}

// miss fetches addr from memory. Data replacement (eviction) is set-LRU
// and completely decoupled from distance replacement: the victim frees a
// frame in whatever d-group held it, and the new block is placed in the
// fastest d-group, demotions rippling outward until a free frame — at the
// latest the victim's — absorbs the chain.
func (c *Cache) miss(now int64, addr uint64, write, predictedDead bool) memsys.AccessResult {
	ripple := c.port.Ripple(now)
	start := c.port.Acquire(now, accessIssueInterval)
	c.energy += c.tagNJ
	c.dist.AddMiss()
	c.ctrs.Inc("misses")
	if c.probe != nil {
		c.probe.Emit(obs.Miss(now, addr).Stamp(start-now, ripple))
	}

	set := c.geo.SetIndex(addr)
	if victim := c.setLRU(set); victim != nil {
		c.freeFrame(victim)
		delete(c.blocks, victim.key)
		c.ctrs.Inc("evictions")
		if c.probe != nil {
			c.probe.Emit(obs.Evict(now, victim.group, victim.dirty))
		}
		if victim.dirty {
			c.ctrs.Inc("writebacks")
			c.chargeAccess(victim.group) // victim read for writeback
			c.mem.Write()
		}
	}

	done := c.mem.Read(start + c.tagLat)

	b := &block{key: c.geo.BlockAddr(addr), set: int32(set), dirty: write}
	b.setStamp = c.nextTick()
	c.blocks[b.key] = b
	dead := predictedDead
	if c.fault == FaultDeadOnArrivalInverted {
		dead = !dead
	}
	if c.cfg.Distance == nurapid.DeadOnArrival && dead {
		c.placeDead(now, b)
	} else {
		c.place(now, b, 0)
	}
	if c.cfg.Memoize {
		c.memo[set] = b.key
	}
	return memsys.AccessResult{Hit: false, DoneAt: done, Group: -1}
}

// setLRU returns the data-replacement victim of a tag set — the least
// recently demand-used resident block — or nil while the set still has a
// free way. The map scan is O(blocks); stamps are unique, so the minimum
// is well-defined regardless of map iteration order.
func (c *Cache) setLRU(set int) *block {
	var lru *block
	resident := 0
	for _, b := range c.blocks {
		if int(b.set) != set {
			continue
		}
		resident++
		if lru == nil || b.setStamp < lru.setStamp {
			lru = b
		}
	}
	if resident < c.geo.Assoc {
		return nil
	}
	return lru
}

// promote moves a just-hit block to a faster d-group: its frame is
// released first, so the demotion ripple that placement triggers can
// terminate there at the latest.
func (c *Cache) promote(now int64, b *block, to int) {
	from := b.group
	c.freeFrame(b)
	c.ctrs.Inc("promotions")
	if c.probe != nil {
		c.probe.Emit(obs.Promote(now, from, to))
	}
	c.place(now, b, to)
}

// place installs b into d-group g: into a free frame of its partition if
// one exists, otherwise over a distance-replacement victim, which is then
// placed one d-group farther — the paper's demotion ripple. Conservation
// of frames bounds the chain at NumDGroups-1 links.
func (c *Cache) place(now int64, b *block, g int) {
	depth := 0
	for {
		if g >= c.cfg.NumDGroups {
			panic("refmodel: demotion ripple ran past the slowest d-group")
		}
		p := c.partition(int(b.set))
		if f, ok := c.takeFree(g, p); ok {
			c.frames[g][f] = b
			b.group, b.frame = g, f
			b.hits = 0 // promotion counts hits since arrival here
			b.distStamp = c.nextTick()
			c.chargeAccess(g) // fill write
			if c.probe != nil {
				c.probe.Emit(obs.Place(now, g, depth))
				if depth > 0 {
					c.probe.Emit(obs.SwapBacklog(now, c.port.FreeAt()-now))
				}
			}
			return
		}
		f := c.distanceVictim(g, p)
		victim := c.frames[g][f]
		c.frames[g][f] = b
		b.group, b.frame = g, f
		if c.fault != FaultSkipDemoteHitsReset {
			b.hits = 0
		}
		b.distStamp = c.nextTick()
		c.chargeAccess(g) // victim read
		c.chargeAccess(g) // incoming write
		c.port.Extend(2 * movementOccupancy)
		c.ctrs.Inc("demotions")
		depth++
		if c.probe != nil {
			c.probe.Emit(obs.DemoteLink(now, g, g+1, depth))
		}
		b = victim
		g++
	}
}

// placeDead installs a predicted-dead fill directly into the slowest
// d-group whose partition has a free frame, scanning slowest to fastest
// — no demotion ripple. Conservation of frames guarantees the scan
// succeeds: each partition holds exactly as many frames as the sets
// mapping to it hold blocks, so the data replacement preceding this
// fill freed a frame when the partition was full.
func (c *Cache) placeDead(now int64, b *block) {
	p := c.partition(int(b.set))
	for g := c.cfg.NumDGroups - 1; g >= 0; g-- {
		f, ok := c.takeFree(g, p)
		if !ok {
			continue
		}
		c.frames[g][f] = b
		b.group, b.frame = g, f
		b.hits = 0
		b.distStamp = c.nextTick()
		c.chargeAccess(g) // fill write
		c.ctrs.Inc("dead_fills")
		if c.probe != nil {
			c.probe.Emit(obs.Place(now, g, 0))
		}
		return
	}
	panic("refmodel: dead-on-arrival fill found no free frame in its partition")
}

// takeFree pops the top of a partition's free stack (the pinned LIFO
// discipline), reporting false when the partition is full.
func (c *Cache) takeFree(g, p int) (int32, bool) {
	list := c.free[g][p]
	if len(list) == 0 {
		return 0, false
	}
	c.free[g][p] = list[1:]
	return list[0], true
}

// freeFrame vacates b's current frame and pushes it on its partition's
// free stack, most recently freed first.
func (c *Cache) freeFrame(b *block) {
	g, f := b.group, b.frame
	if c.frames[g][f] != b {
		panic("refmodel: freeing a frame the block does not occupy")
	}
	c.frames[g][f] = nil
	p := int(f) / c.partSize
	c.free[g][p] = append([]int32{f}, c.free[g][p]...)
}

// distanceVictim selects the frame to demote from a full partition:
// the least recently used frame under LRUDistance, or a single uniform
// draw — the pinned one-draw-per-victim RNG contract — under
// RandomDistance.
func (c *Cache) distanceVictim(g, p int) int32 {
	base := int32(p * c.partSize)
	if c.cfg.Distance == nurapid.LRUDistance {
		victim := int32(-1)
		for f := base; f < base+int32(c.partSize); f++ {
			b := c.frames[g][f]
			if b == nil {
				panic("refmodel: distance victim requested while partition has free frames")
			}
			if victim < 0 || b.distStamp < c.frames[g][victim].distStamp {
				victim = f
			}
		}
		return victim
	}
	return base + int32(c.rng.Intn(c.partSize))
}

// Distribution implements memsys.LowerLevel.
func (c *Cache) Distribution() *stats.Distribution { return c.dist }

// EnergyNJ implements memsys.LowerLevel.
func (c *Cache) EnergyNJ() float64 { return c.energy }

// Counters implements memsys.LowerLevel.
func (c *Cache) Counters() *stats.Counters {
	c.ctrs.Set("port_wait_cycles", c.port.WaitCycles)
	c.ctrs.Set("port_conflicts", c.port.Conflicts)
	c.ctrs.Set("port_busy_cycles", c.port.BusyCycles)
	return &c.ctrs
}

// Snapshot mirrors nurapid.Cache.Snapshot key for key, so snapshot
// comparison needs no translation table.
func (c *Cache) Snapshot() []stats.KV {
	out := []stats.KV{
		{Name: "tag_latency_cycles", Value: float64(c.tagLat)},
		{Name: "tag_access_nj", Value: c.tagNJ},
		{Name: "energy_nj", Value: c.energy},
	}
	if c.cfg.Memoize {
		out = append(out, stats.KV{Name: "memo_saved_nj", Value: c.memoNJ * float64(c.ctrs.Get("memo_hits"))})
	}
	out = append(out, c.Counters().Snapshot()...)
	for g, n := range c.GroupAccesses() {
		out = append(out, stats.KV{Name: fmt.Sprintf("dgroup_%d_accesses", g), Value: float64(n)})
	}
	return out
}

// GroupAccesses returns the number of data-array accesses per d-group.
func (c *Cache) GroupAccesses() []int64 {
	return append([]int64(nil), c.groupAccesses...)
}

// GroupOf reports which d-group currently holds addr, or -1 when the
// block is not resident. No side effects.
func (c *Cache) GroupOf(addr uint64) int {
	b, ok := c.blocks[c.geo.BlockAddr(addr)]
	if !ok {
		return -1
	}
	return b.group
}

// Contains reports whether addr is resident (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.blocks[c.geo.BlockAddr(addr)]
	return ok
}

// GroupOccupancy returns the number of occupied frames per d-group.
func (c *Cache) GroupOccupancy() []int {
	out := make([]int, c.cfg.NumDGroups)
	for g, frames := range c.frames {
		for _, b := range frames {
			if b != nil {
				out[g]++
			}
		}
	}
	return out
}

var _ memsys.LowerLevel = (*Cache)(nil)
var _ obs.Probeable = (*Cache)(nil)

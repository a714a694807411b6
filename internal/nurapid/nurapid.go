// Package nurapid implements the paper's primary contribution: the
// Non-uniform access with Replacement And Placement using Distance
// associativity cache (NuRAPID).
//
// A centralized set-associative tag array is probed before the data
// arrays (sequential tag-data access). Each tag entry carries a forward
// pointer to an arbitrary frame in one of a few large distance-groups
// (d-groups); each frame carries a reverse pointer back to its tag
// entry. New blocks are placed in the fastest d-group; making room
// demotes some other block — not necessarily from the same set — to the
// next-slower d-group, rippling until a free frame absorbs the chain.
// Eviction from the cache (data replacement) stays LRU within the set
// and is completely decoupled from demotion (distance replacement).
//
// The cache is one-ported and non-banked: any outstanding block movement
// must complete before the next access starts, modeled with a single
// port scoreboard.
//
// The implementation is organized for an allocation-free access loop:
// all d-group frames live in one flat frameStore indexed by dense global
// frame ids (the tag-line forward pointer is that id plus one), per-set
// partition and per-group latency/energy lookups are precomputed tables,
// and the per-access event counts are plain struct fields materialized
// into the named counter set only when Counters() is called.
package nurapid

import (
	"fmt"
	"math"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/floorplan"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// Promotion selects what happens when a block hits outside the fastest
// d-group (paper Sec. 2.4.1).
type Promotion int

const (
	// DemotionOnly never promotes; blocks only move outward.
	DemotionOnly Promotion = iota
	// NextFastest promotes a hit block one d-group closer, demoting the
	// distance-replacement victim of that group into the freed frame.
	NextFastest
	// Fastest promotes a hit block straight to d-group 0, rippling
	// demotions outward until the freed frame absorbs the chain.
	Fastest
	// PredictiveBypass promotes like NextFastest, except that a hit on a
	// block the sampled reuse-distance predictor flags as dead/streaming
	// bypasses the promotion machinery entirely: no movement, and the
	// block's saturating hit counter is reset so a later prediction flip
	// still has to earn a full PromoteHits screen before promoting.
	PredictiveBypass
)

func (p Promotion) String() string {
	switch p {
	case DemotionOnly:
		return "demotion-only"
	case NextFastest:
		return "next-fastest"
	case Fastest:
		return "fastest"
	case PredictiveBypass:
		return "predictive-bypass"
	default:
		return fmt.Sprintf("Promotion(%d)", int(p))
	}
}

// DistancePolicy selects how the distance-replacement victim is chosen
// within a d-group (paper Sec. 2.4.2).
type DistancePolicy int

const (
	// RandomDistance picks a victim frame uniformly (the paper's
	// recommended cheap policy).
	RandomDistance DistancePolicy = iota
	// LRUDistance tracks true LRU among a d-group's frames (the paper's
	// expensive reference point).
	LRUDistance
	// DeadOnArrival selects victims like RandomDistance, but a fill whose
	// block the reuse-distance predictor flags as dead installs directly
	// into the slowest d-group with a free frame (scanning slowest to
	// fastest) instead of rippling demotions out of d-group 0.
	DeadOnArrival
)

func (p DistancePolicy) String() string {
	switch p {
	case RandomDistance:
		return "random"
	case LRUDistance:
		return "lru"
	case DeadOnArrival:
		return "dead-on-arrival"
	default:
		return fmt.Sprintf("DistancePolicy(%d)", int(p))
	}
}

// Placement selects the tag-data coupling mode.
type Placement int

const (
	// DistanceAssociative is NuRAPID's decoupled placement: any block in
	// any frame of any d-group.
	DistanceAssociative Placement = iota
	// SetAssociative couples placement to the set, giving each set a
	// fixed assoc/nGroups frames per d-group — the comparison cache of
	// the paper's Figure 4.
	SetAssociative
)

func (p Placement) String() string {
	switch p {
	case DistanceAssociative:
		return "distance-associative"
	case SetAssociative:
		return "set-associative"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Config parameterizes a NuRAPID cache. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	CapacityBytes int64 // total data capacity (8 MB in the paper)
	BlockBytes    int   // 128 in the paper
	Assoc         int   // tag-array associativity (8 in the paper)
	NumDGroups    int   // 2, 4, or 8

	Promotion Promotion
	Distance  DistancePolicy
	Placement Placement

	// RestrictFrames, when positive, restricts each block to a partition
	// of that many frames within each d-group (Sec. 2.4.3), shrinking
	// the forward/reverse pointers. 0 means fully flexible.
	RestrictFrames int

	// PromoteHits is the promotion trigger: a block is promoted after
	// its PromoteHits-th hit since arriving in its current d-group.
	// 0 and 1 both mean "promote on every hit" (the paper's policy);
	// higher values screen blocks before moving them, an ablation of
	// the screening D-NUCA performs with its slowest-first placement.
	PromoteHits int

	// Memoize enables forward-pointer memoization (after Ishihara &
	// Fallah's way memoization): each set remembers the tag and way of
	// its most recent access, and a repeat access to the same block skips
	// the sequential tag probe. The memo is an energy optimization only —
	// timing and placement are untouched — and each skipped probe credits
	// the cacti tag-probe energy back.
	Memoize bool

	Seed uint64 // seed for random distance replacement

	// Audit, when true, re-verifies the cache's structural invariants
	// (forward/reverse pointer bijection, d-group occupancy conservation,
	// recency-list well-formedness) after every access and panics on the
	// first violation. It makes each access cost O(frames) — for tests
	// and debugging only, never for performance runs.
	Audit bool
}

// DefaultConfig is the paper's primary design: 8 MB, 8-way, 128-B blocks,
// 4 d-groups, next-fastest promotion, random distance replacement.
func DefaultConfig() Config {
	return Config{
		CapacityBytes: 8 << 20,
		BlockBytes:    128,
		Assoc:         8,
		NumDGroups:    4,
		Promotion:     NextFastest,
		Distance:      RandomDistance,
		Placement:     DistanceAssociative,
		Seed:          1,
	}
}

// accessIssueInterval is the cycles between successive accesses the
// single port can accept when no block movement is outstanding: the tag
// array and data subarrays are pipelined even though the cache is
// non-banked.
const accessIssueInterval = 4

// movementOccupancy is the port time one block movement operation (a
// swap read or write, a demotion write, a victim read) holds the single
// port: a 128-B block transfer on the wide (64-B/cycle), pipelined
// internal bus.
// Movement must complete before the next access is initiated, so these
// cycles are the price NuRAPID pays for each swap — kept affordable by
// how few swaps its placement policy needs.
const movementOccupancy = 2

// hotCounters are the per-access event counts, kept as plain fields so
// the access loop never hashes a counter name. Counters() materializes
// them into the named set with the same presence semantics Inc would
// have produced: a name exists iff its event occurred at least once.
type hotCounters struct {
	accesses   int64
	misses     int64
	evictions  int64
	writebacks int64
	promotions int64
	demotions  int64
	bypasses   int64 // hits whose promotion the predictor suppressed
	deadFills  int64 // fills installed dead-on-arrival in a slow d-group
	memoHits   int64 // hits served through the per-set way memo
}

// Cache is a NuRAPID lower-level cache. It implements memsys.LowerLevel.
type Cache struct {
	cfg    Config
	geo    cache.Geometry
	idx    cache.Index
	tags   *cache.Array
	store  frameStore
	tagLat int64
	tagNJ  float64
	memoNJ float64 // energy credited back per memoized (probe-free) hit

	nGroups        int
	framesPerGroup int
	nParts         int
	partSize       int
	fpgShift       uint8 // frame id -> group shift; valid iff fpgPow2
	fpgPow2        bool
	trigger        uint8 // promotion trigger in saturating-hit units

	grpLat      []int64   // serve latency per d-group
	grpNJ       []float64 // energy per data-array access per d-group
	grpAccesses []int64   // data-array accesses per d-group
	partTab     []int32   // set -> frame partition (same in every group)

	port  memsys.Port
	mem   *memsys.Memory
	rng   *mathx.RNG
	probe obs.Probe

	// pred is non-nil iff a predictive policy is configured; the memo
	// slices are non-nil iff Config.Memoize (memoWay -1 = no memo entry).
	pred    *predictor
	memoTag []uint64
	memoWay []int32

	dist   *stats.Distribution
	ctrs   stats.Counters
	hot    hotCounters
	energy float64
}

// New builds a NuRAPID cache with latencies and energies derived from the
// cacti model and the L-shaped floorplan.
func New(cfg Config, m *cacti.Model, mem *memsys.Memory) (*Cache, error) {
	geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if geo.NumBlocks() > math.MaxInt32 {
		// Frame ids, the frame store's links and the tag entries'
		// forward pointers (frame id + 1) are int32.
		return nil, fmt.Errorf("nurapid: %d frames exceed the %d that int32 frame ids address",
			geo.NumBlocks(), math.MaxInt32)
	}
	if cfg.NumDGroups <= 0 || geo.NumBlocks()%cfg.NumDGroups != 0 {
		return nil, fmt.Errorf("nurapid: %d blocks do not divide into %d d-groups",
			geo.NumBlocks(), cfg.NumDGroups)
	}
	totalMB := int(cfg.CapacityBytes >> 20)
	if int64(totalMB)<<20 != cfg.CapacityBytes || totalMB%cfg.NumDGroups != 0 {
		return nil, fmt.Errorf("nurapid: capacity %d B does not split into %d whole-MB d-groups",
			cfg.CapacityBytes, cfg.NumDGroups)
	}
	framesPerGroup := geo.NumBlocks() / cfg.NumDGroups

	var nParts, partSize int
	switch cfg.Placement {
	case DistanceAssociative:
		if cfg.RestrictFrames > 0 {
			if framesPerGroup%cfg.RestrictFrames != 0 {
				return nil, fmt.Errorf("nurapid: %d frames per d-group not divisible by restriction %d",
					framesPerGroup, cfg.RestrictFrames)
			}
			nParts, partSize = framesPerGroup/cfg.RestrictFrames, cfg.RestrictFrames
			if geo.NumSets()%nParts != 0 {
				// Else some partition has more tags than frames, and a
				// demotion chain can run out of d-groups.
				return nil, fmt.Errorf("nurapid: %d sets do not spread evenly over %d partitions of %d frames",
					geo.NumSets(), nParts, cfg.RestrictFrames)
			}
		} else {
			nParts, partSize = 1, framesPerGroup
		}
	case SetAssociative:
		if cfg.RestrictFrames > 0 {
			// Set-associative placement already pins each block to the
			// assoc/nGroups frames of its set; a frame restriction on top
			// of that has no meaning, and silently ignoring it would let
			// sweeps believe they measured a configuration that never ran.
			return nil, fmt.Errorf("nurapid: RestrictFrames %d is incompatible with set-associative placement (frames are already restricted to the set)",
				cfg.RestrictFrames)
		}
		if cfg.Assoc%cfg.NumDGroups != 0 {
			return nil, fmt.Errorf("nurapid: set-associative placement needs assoc %d divisible by %d d-groups",
				cfg.Assoc, cfg.NumDGroups)
		}
		nParts, partSize = geo.NumSets(), cfg.Assoc/cfg.NumDGroups
	default:
		return nil, fmt.Errorf("nurapid: unknown placement %v", cfg.Placement)
	}
	if cfg.PromoteHits < 0 || cfg.PromoteHits > 200 {
		// The per-frame hit count is an 8-bit saturating counter capped at
		// 255; triggers beyond 200 would sit in (or wrap into) the
		// saturation zone and silently never (or instantly) fire, so the
		// range check keeps the uint8 narrowing below provably lossless.
		return nil, fmt.Errorf("nurapid: promotion trigger %d outside [0, 200] (the per-frame hit counter saturates at 255 and cannot represent larger screens)", cfg.PromoteHits)
	}

	plan := floorplan.NewLShapedPlan(totalMB, cfg.NumDGroups)
	lats := m.DGroupLatencies(plan)
	energies := m.DGroupEnergies(plan)

	labels := make([]string, cfg.NumDGroups)
	grpLat := make([]int64, cfg.NumDGroups)
	grpNJ := make([]float64, cfg.NumDGroups)
	for g := range labels {
		labels[g] = fmt.Sprintf("dgroup-%d", g)
		grpLat[g] = int64(lats[g])
		grpNJ[g] = energies[g]
	}

	// The partition of a block depends only on its set, and identically
	// in every d-group, so demotion chains stay within one partition and
	// the conservation argument (a freed frame is always reachable)
	// holds. Memoized so the access loop never divides.
	partTab := int32Spares.Get(geo.NumSets())
	if nParts > 1 {
		for s := range partTab {
			if cfg.Placement == SetAssociative {
				partTab[s] = int32(s)
			} else {
				partTab[s] = int32(s % nParts)
			}
		}
	}

	tags, err := cache.NewArray(geo)
	if err != nil {
		return nil, err
	}
	trigger := uint8(1)
	if cfg.PromoteHits > 1 {
		trigger = uint8(cfg.PromoteHits)
	}
	c := &Cache{
		cfg:            cfg,
		geo:            geo,
		idx:            geo.Index(),
		tags:           tags,
		store:          newFrameStore(cfg.NumDGroups, framesPerGroup, nParts, partSize),
		tagLat:         int64(m.TagCycles),
		tagNJ:          m.TagProbeNJ,
		memoNJ:         m.TagProbeNJ,
		nGroups:        cfg.NumDGroups,
		framesPerGroup: framesPerGroup,
		nParts:         nParts,
		partSize:       partSize,
		trigger:        trigger,
		grpLat:         grpLat,
		grpNJ:          grpNJ,
		grpAccesses:    make([]int64, cfg.NumDGroups),
		partTab:        partTab,
		mem:            mem,
		rng:            mathx.NewRNG(cfg.Seed),
		dist:           stats.NewDistribution(labels...),
	}
	if mathx.IsPow2(int64(framesPerGroup)) {
		c.fpgShift = uint8(mathx.Log2(int64(framesPerGroup)))
		c.fpgPow2 = true
	}
	if cfg.Promotion == PredictiveBypass || cfg.Distance == DeadOnArrival {
		c.pred = newPredictor(geo.NumSets(), cfg.Assoc)
	}
	if cfg.Memoize {
		c.memoTag = make([]uint64, geo.NumSets())
		c.memoWay = make([]int32, geo.NumSets())
		for i := range c.memoWay {
			c.memoWay[i] = -1
		}
	}
	return c, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config, m *cacti.Model, mem *memsys.Memory) *Cache {
	c, err := New(cfg, m, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// Release hands the cache's tag arrays, frame store and partition table
// back to the process-wide free lists, for the next cache built; call it
// once the cache's results are harvested (memsys.Releaser). Results
// already read stay valid; any later access panics.
func (c *Cache) Release() {
	arrs := []*cache.Array{c.tags}
	if c.pred != nil {
		arrs = append(arrs, c.pred.shadow)
	}
	cache.ReleaseArrays(arrs...)
	c.store.recycle(c.partTab)
	c.partTab = nil
}

// Name implements memsys.LowerLevel.
func (c *Cache) Name() string {
	return fmt.Sprintf("nurapid-%dg-%s", c.cfg.NumDGroups, c.cfg.Promotion)
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetProbe attaches an observability probe (obs.Probeable). Probes only
// observe — simulated state and timing are unaffected — and a nil probe
// restores the zero-overhead fast path. Call before the first access.
func (c *Cache) SetProbe(p obs.Probe) { c.probe = p }

// partition returns the frame partition for a block of the given set.
func (c *Cache) partition(set int32) int {
	if c.nParts == 1 {
		return 0
	}
	return int(c.partTab[set])
}

// Forward pointers are stored in tag-line Aux as 1+global frame id so
// that the zero value means "no frame".

func (c *Cache) decodeFrame(aux int32) (group int, f int32) {
	gid := c.decodeGid(aux)
	g := c.groupOfGid(gid)
	return g, gid - int32(g*c.framesPerGroup)
}

// decodeGid extracts the global frame id from a tag line's Aux.
func (c *Cache) decodeGid(aux int32) int32 {
	if aux == 0 {
		panic("nurapid: tag entry has no forward pointer")
	}
	return aux - 1
}

// groupOfGid maps a global frame id to its d-group: a shift when the
// per-group frame count is a power of two (every paper configuration),
// a division otherwise.
func (c *Cache) groupOfGid(gid int32) int {
	if c.fpgPow2 {
		return int(uint32(gid) >> c.fpgShift)
	}
	return int(gid) / c.framesPerGroup
}

// chargeAccess records one data-array access in d-group g (a serve, a
// swap read/write, or a fill), charging energy and counting it toward the
// paper's "d-group accesses" comparison.
func (c *Cache) chargeAccess(g int) {
	c.grpAccesses[g]++
	c.energy += c.grpNJ[g]
}

// Access implements memsys.LowerLevel.
//
//nurapid:hotpath
func (c *Cache) Access(req memsys.Req) memsys.AccessResult {
	if c.cfg.Audit {
		return c.auditedAccess(req.Now, req.Addr, req.Write, req.Core)
	}
	return c.access(req.Now, req.Addr, req.Write, req.Core)
}

func (c *Cache) access(now int64, addr uint64, write bool, core int) memsys.AccessResult {
	c.hot.accesses++
	if c.probe != nil {
		c.probe.Emit(obs.Access(now, addr, write, core))
	}
	set := c.idx.SetIndex(addr)
	tag := c.idx.Tag(addr)
	// Predict before observe: the prediction for this access must not see
	// the access itself, or the sampled and non-sampled sets would apply
	// different policies to identical streams.
	predDead := false
	if c.pred != nil {
		key := c.idx.BlockAddr(addr)
		predDead = c.pred.predictDead(key)
		c.pred.observe(set, key)
	}
	// The per-set way memo short-circuits the tag probe on a repeat
	// access. A memo entry can never be stale: promotion, demotion, and
	// swaps move data frames but leave the block's tag way untouched, and
	// evicting the memoized block requires a miss in this set, which
	// overwrites the memo with the incoming block below.
	if c.memoWay != nil && c.memoWay[set] >= 0 && c.memoTag[set] == tag {
		return c.accessHit(now, set, int(c.memoWay[set]), tag, write, predDead, true)
	}
	way, hit := c.tags.FindTag(set, tag)
	if hit {
		return c.accessHit(now, set, way, tag, write, predDead, false)
	}
	return c.accessMiss(now, addr, set, tag, write, predDead)
}

func (c *Cache) accessHit(now int64, set, way int, tag uint64, write, predDead, memoized bool) memsys.AccessResult {
	line := c.tags.Line(set, way)
	c.tags.Touch(set, way)
	if write {
		line.Dirty = true
	}
	gid := c.decodeGid(line.Aux)
	g := c.groupOfGid(gid)
	c.store.touch(gid, g*c.nParts+c.partition(int32(set)))
	fm := &c.store.frames[gid]
	if fm.hits < 255 {
		fm.hits++
	}

	// The single port accepts a new access every issue interval
	// (sequential tag-data accesses pipeline through the tag array and
	// subarrays), but outstanding block movement — charged via Extend in
	// place() — must complete before the next access starts, per the
	// paper's one-ported, non-banked design.
	var ripple int64
	if c.probe != nil {
		ripple = c.port.Ripple(now)
	}
	start := c.port.Acquire(now, accessIssueInterval)
	done := start + c.grpLat[g]
	c.chargeAccess(g)
	if memoized {
		// The memoized forward pointer skipped the sequential tag probe;
		// credit the probe energy back (the d-group access charge above
		// folds the probe in on the normal hit path).
		c.hot.memoHits++
		c.energy -= c.memoNJ
	}
	c.dist.AddHit(g)
	if c.probe != nil {
		c.probe.Emit(obs.Hit(now, g, done-now).Stamp(start-now, ripple))
	}

	switch c.cfg.Promotion {
	case NextFastest:
		if g > 0 && fm.hits >= c.trigger {
			c.moveBlock(now, set, way, gid, g, g-1)
		}
	case Fastest:
		if g > 0 && fm.hits >= c.trigger {
			c.moveBlock(now, set, way, gid, g, 0)
		}
	case PredictiveBypass:
		if predDead {
			// Bypass: no movement, and the screen counter restarts so a
			// prediction flip cannot mass-promote blocks that quietly
			// saturated their counters while bypassed.
			fm.hits = 0
			c.hot.bypasses++
			if c.probe != nil {
				c.probe.Emit(obs.Bypass(now, g))
			}
		} else if g > 0 && fm.hits >= c.trigger {
			c.moveBlock(now, set, way, gid, g, g-1)
		}
	}
	if c.memoWay != nil {
		c.memoTag[set], c.memoWay[set] = tag, int32(way)
	}
	return memsys.AccessResult{Hit: true, DoneAt: done, Group: g}
}

func (c *Cache) accessMiss(now int64, addr uint64, set int, tag uint64, write, predDead bool) memsys.AccessResult {
	// The miss is discovered in the tag array after the tag latency; the
	// pipelined port frees after the issue interval. The fill write and
	// the writeback victim read happen when memory responds, generally
	// off the port's critical path, so only demotion ripples (block
	// movement between d-groups, in place()) extend the port.
	var ripple int64
	if c.probe != nil {
		ripple = c.port.Ripple(now)
	}
	start := c.port.Acquire(now, accessIssueInterval)
	c.energy += c.tagNJ
	c.dist.AddMiss()
	c.hot.misses++
	if c.probe != nil {
		c.probe.Emit(obs.Miss(now, addr).Stamp(start-now, ripple))
	}

	// Conventional data replacement: evict the set's LRU block from the
	// cache, freeing a frame somewhere (paper Fig. 2 step 2).
	way := c.tags.VictimWay(set)
	vl := c.tags.Line(set, way)
	if vl.Valid {
		vgid := c.decodeGid(vl.Aux)
		vg := c.groupOfGid(vgid)
		c.store.release(vgid, vg*c.nParts+c.partition(int32(set)))
		c.hot.evictions++
		if c.probe != nil {
			c.probe.Emit(obs.Evict(now, vg, vl.Dirty))
		}
		if vl.Dirty {
			c.hot.writebacks++
			c.chargeAccess(vg) // victim read for writeback
			c.mem.Write()
		}
	}

	done := c.mem.Read(start + c.tagLat)

	line := c.tags.Fill(addr, way)
	if write {
		line.Dirty = true
	}
	// Distance placement: the new block goes to the fastest d-group,
	// demotions rippling outward until the freed frame absorbs them —
	// unless the predictor flags it dead on arrival, in which case it
	// installs straight into the slowest d-group with room.
	if c.cfg.Distance == DeadOnArrival && predDead {
		c.placeDead(now, int32(set), int8(way))
	} else {
		c.place(now, int32(set), int8(way), 0)
	}
	if c.memoWay != nil {
		c.memoTag[set], c.memoWay[set] = tag, int32(way)
	}
	return memsys.AccessResult{Hit: false, DoneAt: done, Group: -1}
}

// moveBlock promotes the block at (set, way), currently in frame gid of
// d-group `from`, to d-group `to` (to < from): its current frame is
// released, and placement into `to` demotes victims outward; the chain
// terminates at the released frame at the latest.
func (c *Cache) moveBlock(now int64, set, way int, gid int32, from, to int) {
	c.store.release(gid, from*c.nParts+c.partition(int32(set)))
	c.hot.promotions++
	if c.probe != nil {
		c.probe.Emit(obs.Promote(now, from, to))
	}
	// Reading the promoted block out of its old group happened as part
	// of the serve; only the movement writes/reads below are extra.
	c.place(now, int32(set), int8(way), to)
}

// place installs the block identified by its tag coordinates into
// d-group g, performing distance replacement: if the partition has no
// free frame, a victim is selected, displaced, and recursively placed
// one group farther. Conservation of frames guarantees termination; the
// worst case is nGroups-1 demotions (paper Sec. 2.2). The whole chain
// stays in one partition (the partition mapping is identical in every
// d-group), so the partition index is computed once.
func (c *Cache) place(now int64, set int32, way int8, g int) {
	p := c.partition(set)
	useLRU := c.cfg.Distance == LRUDistance
	depth := 0
	for {
		if g >= c.nGroups {
			panic("nurapid: demotion ripple ran past the slowest d-group")
		}
		h := g*c.nParts + p
		if f := c.store.takeFree(h); f != nilFrame {
			c.store.occupy(f, h, set, way)
			c.tags.Line(int(set), int(way)).Aux = f + 1
			c.chargeAccess(g) // fill write, off the port's critical path
			if c.probe != nil {
				c.probe.Emit(obs.Place(now, g, depth))
				if depth > 0 {
					// Movement extended the single port: report the
					// backlog this chain left behind the triggering
					// access (swap-buffer pressure).
					c.probe.Emit(obs.SwapBacklog(now, c.port.FreeAt()-now))
				}
			}
			return
		}
		base := int32(g*c.framesPerGroup + p*c.partSize)
		fv := c.store.victim(h, base, useLRU, c.rng)
		oldSet, oldWay := c.store.replace(fv, h, set, way)
		c.tags.Line(int(set), int(way)).Aux = fv + 1
		c.chargeAccess(g) // victim read
		c.chargeAccess(g) // incoming write
		c.port.Extend(2 * movementOccupancy)
		c.hot.demotions++
		depth++
		if c.probe != nil {
			c.probe.Emit(obs.DemoteLink(now, g, g+1, depth))
		}
		set, way = oldSet, oldWay
		g++
	}
}

// placeDead installs a predicted-dead fill directly into the slowest
// d-group with a free frame in the block's partition (scanning slowest
// to fastest), skipping the demotion ripple entirely. The conservation
// argument guarantees a free frame exists: each partition holds exactly
// as many frames as the sets mapping to it hold blocks, and the data
// replacement preceding this fill freed one when the partition was full.
func (c *Cache) placeDead(now int64, set int32, way int8) {
	p := c.partition(set)
	for g := c.nGroups - 1; g >= 0; g-- {
		h := g*c.nParts + p
		f := c.store.takeFree(h)
		if f == nilFrame {
			continue
		}
		c.store.occupy(f, h, set, way)
		c.tags.Line(int(set), int(way)).Aux = f + 1
		c.chargeAccess(g) // fill write, off the port's critical path
		c.hot.deadFills++
		if c.probe != nil {
			c.probe.Emit(obs.Place(now, g, 0))
		}
		return
	}
	panic("nurapid: dead-on-arrival fill found no free frame in its partition")
}

// Distribution implements memsys.LowerLevel.
func (c *Cache) Distribution() *stats.Distribution { return c.dist }

// EnergyNJ implements memsys.LowerLevel.
func (c *Cache) EnergyNJ() float64 { return c.energy }

// Counters implements memsys.LowerLevel. The hot per-access counts are
// materialized into the named set here, preserving Inc's presence
// semantics (a name exists iff its count is non-zero); the port gauges
// are always present, as before.
func (c *Cache) Counters() *stats.Counters {
	setIfNonZero := func(name string, v int64) {
		if v != 0 {
			c.ctrs.Set(name, v)
		}
	}
	setIfNonZero("accesses", c.hot.accesses)
	setIfNonZero("misses", c.hot.misses)
	setIfNonZero("evictions", c.hot.evictions)
	setIfNonZero("writebacks", c.hot.writebacks)
	setIfNonZero("promotions", c.hot.promotions)
	setIfNonZero("demotions", c.hot.demotions)
	setIfNonZero("bypasses", c.hot.bypasses)
	setIfNonZero("dead_fills", c.hot.deadFills)
	setIfNonZero("memo_hits", c.hot.memoHits)
	c.ctrs.Set("port_wait_cycles", c.port.WaitCycles)
	c.ctrs.Set("port_conflicts", c.port.Conflicts)
	c.ctrs.Set("port_busy_cycles", c.port.BusyCycles)
	return &c.ctrs
}

// Snapshot emits the cache's latency/energy parameters, event counters,
// and per-d-group access counts (statsreg convention: every counter
// field must appear here).
func (c *Cache) Snapshot() []stats.KV {
	out := []stats.KV{
		{Name: "tag_latency_cycles", Value: float64(c.tagLat)},
		{Name: "tag_access_nj", Value: c.tagNJ},
		{Name: "energy_nj", Value: c.energy},
	}
	if c.cfg.Memoize {
		out = append(out, stats.KV{Name: "memo_saved_nj", Value: c.memoNJ * float64(c.hot.memoHits)})
	}
	out = append(out, c.Counters().Snapshot()...)
	for g, n := range c.GroupAccesses() {
		out = append(out, stats.KV{Name: fmt.Sprintf("dgroup_%d_accesses", g), Value: float64(n)})
	}
	return out
}

// GroupAccesses returns the number of data-array accesses per d-group —
// the quantity behind the paper's "61% fewer d-group accesses than NUCA"
// claim.
func (c *Cache) GroupAccesses() []int64 {
	out := make([]int64, c.nGroups)
	copy(out, c.grpAccesses)
	return out
}

// GroupLatencies returns each d-group's serve latency in cycles.
func (c *Cache) GroupLatencies() []int64 {
	out := make([]int64, c.nGroups)
	copy(out, c.grpLat)
	return out
}

// LatencyProfile implements obs.LatencyProfiler: the tag probe and
// memory round trip accessHit/accessMiss charge, which with the port
// stamps on KindHit/KindMiss let the obs.TimeSeries waterfall split
// every access's reported latency.
func (c *Cache) LatencyProfile() obs.LatencyProfile {
	return obs.LatencyProfile{TagCycles: c.tagLat, MemCycles: c.mem.Latency()}
}

// GroupOccupancy returns the number of occupied frames per d-group (no
// side effects) — compared against the reference model's occupancy by the
// differential harness.
func (c *Cache) GroupOccupancy() []int {
	out := make([]int, c.nGroups)
	for g := 0; g < c.nGroups; g++ {
		free := 0
		for p := 0; p < c.nParts; p++ {
			free += int(c.store.freeCount[g*c.nParts+p])
		}
		out[g] = c.framesPerGroup - free
	}
	return out
}

// GroupOf reports which d-group currently holds addr, or -1 when the
// block is not resident. It has no side effects.
func (c *Cache) GroupOf(addr uint64) int {
	way, hit := c.tags.Lookup(addr)
	if !hit {
		return -1
	}
	g, _ := c.decodeFrame(c.tags.Line(c.idx.SetIndex(addr), way).Aux)
	return g
}

// Contains reports whether addr is resident (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, hit := c.tags.Lookup(addr)
	return hit
}

// PointerBits returns the width of the forward/reverse pointers implied
// by the configuration (Sec. 2.4.3): log2 of the number of distinct
// frames a block may occupy across all d-groups.
func (c *Cache) PointerBits() int {
	reach := c.framesPerGroup
	if c.cfg.RestrictFrames > 0 {
		reach = c.cfg.RestrictFrames
	}
	return mathx.Log2(int64(reach*c.nGroups-1)) + 1
}

var _ memsys.LowerLevel = (*Cache)(nil)

// Package nuca implements the D-NUCA baseline the paper compares
// against: the best-performing dynamic non-uniform cache architecture of
// Kim et al. (ASPLOS'02), configured as in the paper's Sec. 4.
//
// The 8-MB, 16-way cache is built from 128 small (64-KB) banks tiled in
// a rectangular grid. The 16 ways of every set are distributed over 8
// latency groups of 2 ways each; a way's group is fixed, so moving a
// block between groups means swapping ways ("bubble" replacement). New
// blocks enter the slowest group and bubble toward the fastest on hits;
// eviction takes the LRU block of the slowest group's ways.
//
// Searches use the smart-search (partial tag) array:
//
//   - ss-performance multicasts the search to all 8 group banks in
//     parallel and uses the partial tags only for early miss detection;
//   - ss-energy probes the partial tags first and then searches only the
//     matching groups, closest first.
//
// Per the paper's generous baseline assumptions, the switched network has
// infinite bandwidth and zero energy, and the smart-search array has
// infinite bandwidth; only bank conflicts are modeled. The cache is
// multibanked: accesses to different banks proceed in parallel.
package nuca

import (
	"fmt"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/floorplan"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// SearchPolicy selects the D-NUCA lookup strategy.
type SearchPolicy int

const (
	// SSPerformance is the performance-optimal policy: parallel
	// multicast search of all groups plus early miss detection.
	SSPerformance SearchPolicy = iota
	// SSEnergy is the energy-optimal policy: partial tags narrow the
	// search to matching groups, probed sequentially closest-first.
	SSEnergy
	// Incremental probes the groups closest-first with no smart-search
	// array at all — the basic D-NUCA lookup the ss policies improve on
	// (kept as an ablation baseline).
	Incremental
)

func (p SearchPolicy) String() string {
	switch p {
	case SSPerformance:
		return "ss-performance"
	case SSEnergy:
		return "ss-energy"
	case Incremental:
		return "incremental"
	default:
		return fmt.Sprintf("SearchPolicy(%d)", int(p))
	}
}

// The paper's D-NUCA geometry (Sec. 4), fixed: only the search policy
// varies between the configurations it evaluates.
const (
	capacityBytes = 8 << 20
	// BlockBytes is D-NUCA's block size; the memory model behind it must
	// transfer blocks of this size.
	BlockBytes    = 128
	assoc         = 16
	bankKB        = 64
	numBanks      = capacityBytes / (bankKB << 10) // 128
	numGroups     = 8                              // latency groups per set
	waysPerGroup  = assoc / numGroups              // 2
	banksPerGroup = numBanks / numGroups           // 16, a power of two
	// partialTagMask selects the smart-search array's partial tags: the
	// 7 least-significant tag bits.
	partialTagMask = 1<<7 - 1
)

// Config parameterizes the D-NUCA cache.
type Config struct {
	Policy SearchPolicy
}

// DefaultConfig is the paper's optimal D-NUCA: 8 MB, 16-way, 128 64-KB
// banks, 8 groups per set, 7-bit partial tags, ss-performance search.
func DefaultConfig() Config { return Config{Policy: SSPerformance} }

// bankOccupancy is the cycles one probe occupies a (small, pipelined)
// bank.
const bankOccupancy = 3

// swapOccupancy is the cycles one bubble-swap operation occupies a bank:
// a full 128-B block is read out of or written into the bank and crosses
// the switched network. This is the bandwidth the paper says D-NUCA's
// "frequent swaps" consume — later probes of a bank mid-swap must wait.
const swapOccupancy = 12

// Cache is a D-NUCA cache. It implements memsys.LowerLevel.
type Cache struct {
	cfg  Config
	tags *cache.Array // way w belongs to latency group w / waysPerGroup
	idx  cache.Index

	banks   []memsys.Port
	bankLat []int64
	bankNJ  []float64
	// bankTab flattens the [group][set % banksPerGroup] -> bank id map:
	// entry group*banksPerGroup + (set % banksPerGroup).
	bankTab [numGroups * banksPerGroup]int32

	ssLat int64
	ssNJ  float64

	mem    *memsys.Memory
	dist   *stats.Distribution
	ctrs   stats.Counters
	hot    nucaHot
	energy float64
	probe  obs.Probe
}

// nucaHot holds the per-access counters as plain fields; Counters()
// materializes them into the map with the same presence semantics as the
// former Inc calls (a name exists iff its count is non-zero).
type nucaHot struct {
	accesses         int64
	misses           int64
	evictions        int64
	writebacks       int64
	promotions       int64
	bankAccesses     int64
	ssAccesses       int64
	falsePartialHits int64
}

// New builds a D-NUCA cache with bank latencies and energies from the
// cacti model over the rectangular bank grid.
func New(cfg Config, m *cacti.Model, mem *memsys.Memory) (*Cache, error) {
	if cfg.Policy < SSPerformance || cfg.Policy > Incremental {
		return nil, fmt.Errorf("nuca: unknown search policy %v", cfg.Policy)
	}
	tags := cache.MustNewArray(cache.Geometry{CapacityBytes: capacityBytes, BlockBytes: BlockBytes, Assoc: assoc})

	grid := floorplan.NewNUCAGrid(capacityBytes>>20, bankKB)
	latencies := m.NUCABankLatencies(grid)
	energies := m.NUCABankEnergies(grid)
	order := grid.BanksByDistance()

	// Group the 16 ways into 8 latency groups of 2; each group owns a
	// chunk of 16 banks (by distance), one bank per 16 consecutive sets.
	c := &Cache{
		cfg:     cfg,
		tags:    tags,
		idx:     tags.Index(),
		banks:   make([]memsys.Port, numBanks),
		bankLat: make([]int64, numBanks),
		bankNJ:  energies,
		ssLat:   int64(m.SmartSearchCyc),
		ssNJ:    m.SmartSearchNJ,
		mem:     mem,
	}
	for g := 0; g < numGroups; g++ {
		for i, b := range order[g*banksPerGroup : (g+1)*banksPerGroup] {
			c.bankTab[g*banksPerGroup+i] = int32(b)
		}
	}
	for i, l := range latencies {
		c.bankLat[i] = int64(l)
	}

	labels := make([]string, numGroups)
	for g := range labels {
		labels[g] = fmt.Sprintf("group-%d", g)
	}
	c.dist = stats.NewDistribution(labels...)
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

// Release hands the cache's tag array back to the process-wide free
// list (memsys.Releaser); any later access panics.
func (c *Cache) Release() { cache.ReleaseArrays(c.tags) }

// Name implements memsys.LowerLevel.
func (c *Cache) Name() string { return "dnuca-" + c.cfg.Policy.String() }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetProbe attaches an observability probe (obs.Probeable). Probes only
// observe — simulated state and timing are unaffected — and a nil probe
// restores the zero-overhead fast path. Call before the first access.
// D-NUCA's bubble swap is reported as one promotion plus a depth-1
// demotion link absorbed by the frame the promoted block freed.
func (c *Cache) SetProbe(p obs.Probe) { c.probe = p }

func groupOfWay(way int) int { return way / waysPerGroup }

// bankOf returns the bank holding the ways of `group` for `set`.
func (c *Cache) bankOf(group, set int) int {
	return int(c.bankTab[group*banksPerGroup+set&(banksPerGroup-1)])
}

// probeBank performs one timed, energy-charged access to bank b starting
// no earlier than t, returning when its response is available.
func (c *Cache) probeBank(b int, t int64) int64 {
	start := c.banks[b].Acquire(t, bankOccupancy)
	c.hot.bankAccesses++
	c.energy += c.bankNJ[b]
	return start + c.bankLat[b]
}

// chargeBank records a block-movement bank access (swap traffic, fills):
// the bank is occupied for a full block transfer.
func (c *Cache) chargeBank(b int, t int64) {
	c.banks[b].Acquire(t, swapOccupancy)
	c.hot.bankAccesses++
	c.energy += c.bankNJ[b]
}

// partialMatches reports, per latency group, whether any valid way in
// the set partially matches tag — the smart-search array's answer.
func (c *Cache) partialMatches(set int, tag uint64) (out [numGroups]bool) {
	masked := tag & partialTagMask
	lines := c.tags.Set(set)
	for w := range lines {
		if l := &lines[w]; l.Valid && l.Tag&partialTagMask == masked {
			out[groupOfWay(w)] = true
		}
	}
	return out
}

// Access implements memsys.LowerLevel.
//
//nurapid:hotpath
func (c *Cache) Access(req memsys.Req) memsys.AccessResult {
	now, addr, write := req.Now, req.Addr, req.Write
	c.hot.accesses++
	if c.probe != nil {
		c.probe.Emit(obs.Access(now, addr, write, req.Core))
	}
	set := c.idx.SetIndex(addr)
	tag := c.idx.Tag(addr)

	way, hit := c.tags.FindTag(set, tag)

	var done int64
	switch c.cfg.Policy {
	case SSPerformance:
		c.chargeSmartSearch()
		done = c.searchParallel(now, set, way, hit, c.partialMatches(set, tag))
	case SSEnergy:
		c.chargeSmartSearch()
		done = c.searchSequential(now, set, way, hit, c.partialMatches(set, tag))
	case Incremental:
		done = c.searchIncremental(now, set, way, hit)
	}

	if hit {
		g := groupOfWay(way)
		c.dist.AddHit(g)
		if c.probe != nil {
			c.probe.Emit(obs.Hit(now, g, done-now))
		}
		if write {
			c.tags.Line(set, way).Dirty = true
		}
		c.tags.Touch(set, way)
		if g > 0 {
			c.promote(now, set, way)
		}
		return memsys.AccessResult{Hit: true, DoneAt: done, Group: g}
	}

	// Miss: fetch from memory and place in the slowest group.
	c.dist.AddMiss()
	c.hot.misses++
	if c.probe != nil {
		c.probe.Emit(obs.Miss(now, addr))
	}
	fillDone := c.mem.Read(done)
	c.fill(now, set, addr, write)
	return memsys.AccessResult{Hit: false, DoneAt: fillDone, Group: -1}
}

func (c *Cache) chargeSmartSearch() {
	c.hot.ssAccesses++
	c.energy += c.ssNJ
}

// searchIncremental probes every group's bank closest-first until the
// block is found, with no partial-tag filtering; a miss is confirmed
// only after the farthest bank answers.
func (c *Cache) searchIncremental(now int64, set, way int, hit bool) int64 {
	t := now
	for g := 0; g < numGroups; g++ {
		t = c.probeBank(c.bankOf(g, set), t)
		if hit && g == groupOfWay(way) {
			return t
		}
	}
	return t
}

// searchParallel is ss-performance: every group's bank is probed at once;
// a hit completes when its bank responds; a miss with no partial match is
// detected as soon as the smart-search array answers, otherwise when the
// slowest probed bank responds.
func (c *Cache) searchParallel(now int64, set, way int, hit bool, matches [numGroups]bool) int64 {
	latest := now + c.ssLat
	var hitDone int64
	for g := 0; g < numGroups; g++ {
		resp := c.probeBank(c.bankOf(g, set), now)
		if hit && g == groupOfWay(way) {
			hitDone = resp
		}
		if resp > latest {
			latest = resp
		}
	}
	if hit {
		return hitDone
	}
	anyMatch := false
	for _, m := range matches {
		anyMatch = anyMatch || m
	}
	if !anyMatch {
		return now + c.ssLat // early miss
	}
	c.hot.falsePartialHits++
	return latest
}

// searchSequential is ss-energy: only groups with a partial match are
// probed, closest first, each probe starting after the previous one
// answers.
func (c *Cache) searchSequential(now int64, set, way int, hit bool, matches [numGroups]bool) int64 {
	t := now + c.ssLat
	for g := 0; g < numGroups; g++ {
		if !matches[g] {
			continue
		}
		t = c.probeBank(c.bankOf(g, set), t)
		if hit && g == groupOfWay(way) {
			return t
		}
		c.hot.falsePartialHits++
	}
	return t // miss: confirmed after the last candidate (or the ss array)
}

// promote bubbles the block at (set, way) one group closer to the
// processor by swapping with the LRU way of the adjacent faster group
// (paper Sec. 2.2's "bubble replacement").
func (c *Cache) promote(now int64, set, way int) {
	g := groupOfWay(way)
	target := c.tags.VictimWayIn(set, (g-1)*waysPerGroup, g*waysPerGroup)
	swapped := c.tags.Line(set, target).Valid
	// Stamps travel with the lines: the promoted block keeps its fresh
	// recency, the demoted one keeps its old stamp.
	c.tags.Swap(set, way, target)
	c.hot.promotions++
	if c.probe != nil {
		c.probe.Emit(obs.Promote(now, g, g-1))
		if swapped {
			// A bubble swap is a one-link chain: the promoted block
			// leaves group g, displacing g-1's victim into the frame
			// it freed.
			c.probe.Emit(obs.DemoteLink(now, g-1, g, 1))
			c.probe.Emit(obs.Place(now, g, 1))
		} else {
			// The faster group still had an empty way: a pure move.
			c.probe.Emit(obs.Place(now, g-1, 0))
		}
	}
	// A swap reads and writes both banks.
	b1 := c.bankOf(g, set)
	b2 := c.bankOf(g-1, set)
	c.chargeBank(b1, now)
	c.chargeBank(b1, now)
	c.chargeBank(b2, now)
	c.chargeBank(b2, now)
}

// fill installs addr's block into the slowest group, evicting that group's
// LRU way (the paper: "D-NUCA evicts the block in the slowest way of the
// set", which need not be the set's LRU block).
func (c *Cache) fill(now int64, set int, addr uint64, write bool) {
	const slowest = numGroups - 1
	way := c.tags.VictimWayIn(set, slowest*waysPerGroup, assoc)
	bank := c.bankOf(slowest, set)
	if l := c.tags.Line(set, way); l.Valid {
		c.hot.evictions++
		if c.probe != nil {
			c.probe.Emit(obs.Evict(now, slowest, l.Dirty))
		}
		if l.Dirty {
			c.hot.writebacks++
			c.chargeBank(bank, now) // victim read
			c.mem.Write()
		}
	}
	c.tags.Fill(addr, way).Dirty = write
	c.chargeBank(bank, now) // fill write
	if c.probe != nil {
		c.probe.Emit(obs.Place(now, slowest, 0))
	}
}

// Distribution implements memsys.LowerLevel.
func (c *Cache) Distribution() *stats.Distribution { return c.dist }

// EnergyNJ implements memsys.LowerLevel.
func (c *Cache) EnergyNJ() float64 { return c.energy }

// Counters implements memsys.LowerLevel. The hot-path counts live in
// plain fields and are materialized here; a name is created only when
// its count is non-zero, matching the presence semantics of Inc.
func (c *Cache) Counters() *stats.Counters {
	set := func(name string, v int64) {
		if v != 0 {
			c.ctrs.Set(name, v)
		}
	}
	set("accesses", c.hot.accesses)
	set("misses", c.hot.misses)
	set("evictions", c.hot.evictions)
	set("writebacks", c.hot.writebacks)
	set("promotions", c.hot.promotions)
	set("bank_accesses", c.hot.bankAccesses)
	set("ss_accesses", c.hot.ssAccesses)
	set("false_partial_hits", c.hot.falsePartialHits)
	return &c.ctrs
}

// GroupOf reports which latency group currently holds addr, or -1.
func (c *Cache) GroupOf(addr uint64) int {
	way, ok := c.tags.Lookup(addr)
	if !ok {
		return -1
	}
	return groupOfWay(way)
}

// Contains reports whether addr is resident (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.tags.Lookup(addr)
	return ok
}

// NumGroups returns the number of latency groups per set.
func (c *Cache) NumGroups() int { return numGroups }

// CheckInvariants validates tag-state consistency: no set holds a tag
// twice. (Recency is the tag array's own, bounded by its clock; the
// cache package tests that.)
func (c *Cache) CheckInvariants() error {
	for set := 0; set < c.idx.NumSets(); set++ {
		seen := make(map[uint64]bool)
		for _, l := range c.tags.Set(set) {
			if !l.Valid {
				continue
			}
			if seen[l.Tag] {
				return fmt.Errorf("set %d holds tag %#x twice", set, l.Tag)
			}
			seen[l.Tag] = true
		}
	}
	return nil
}

var _ memsys.LowerLevel = (*Cache)(nil)

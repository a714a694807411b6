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
	"nurapid/internal/mathx"
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

// Config parameterizes the D-NUCA cache.
type Config struct {
	CapacityBytes int64 // 8 MB in the paper
	BlockBytes    int   // 128
	Assoc         int   // 16
	BankKB        int   // 64
	Policy        SearchPolicy

	// PartialTagBits is the width of the smart-search array entries; the
	// paper uses the 7 least-significant tag bits.
	PartialTagBits int
}

// DefaultConfig is the paper's optimal D-NUCA: 8 MB, 16-way, 128 64-KB
// banks, 8 groups per set, 7-bit partial tags, ss-performance search.
func DefaultConfig() Config {
	return Config{
		CapacityBytes:  8 << 20,
		BlockBytes:     128,
		Assoc:          16,
		BankKB:         64,
		Policy:         SSPerformance,
		PartialTagBits: 7,
	}
}

// bankOccupancy is the cycles one probe occupies a (small, pipelined)
// bank.
const bankOccupancy = 3

// swapOccupancy is the cycles one bubble-swap operation occupies a bank:
// a full 128-B block is read out of or written into the bank and crosses
// the switched network. This is the bandwidth the paper says D-NUCA's
// "frequent swaps" consume — later probes of a bank mid-swap must wait.
const swapOccupancy = 12

type line struct {
	valid bool
	dirty bool
	tag   uint64
	stamp uint64
}

// Cache is a D-NUCA cache. It implements memsys.LowerLevel.
type Cache struct {
	cfg       Config
	geo       cache.Geometry
	idx       cache.Index
	numGroups int
	assoc     int
	wpg       int    // ways per latency group
	wayGroup  []int8 // way -> latency group
	lines     []line // sets x assoc; way w belongs to group wayGroup[w]
	clock     uint64

	banks   []memsys.Port
	bankLat []int64
	bankNJ  []float64
	// bankTab flattens the [group][set % banksPerGroup] -> bank id map:
	// entry group*bpg + (set % bpg). When bpg is a power of two the modulo
	// reduces to a mask on the hot path.
	bankTab []int32
	bpg     int
	bpgMask uint32
	bpgPow2 bool

	ssLat int64
	ssNJ  float64
	mask  uint64 // partial-tag mask

	matchBuf []bool // scratch for partialMatches; reused every access

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
	geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.BankKB <= 0 || cfg.CapacityBytes%int64(cfg.BankKB<<10) != 0 {
		return nil, fmt.Errorf("nuca: capacity %d not divisible into %d-KB banks",
			cfg.CapacityBytes, cfg.BankKB)
	}
	numBanks := int(cfg.CapacityBytes / int64(cfg.BankKB<<10))
	if numBanks%cfg.Assoc != 0 {
		return nil, fmt.Errorf("nuca: %d banks not divisible by associativity %d", numBanks, cfg.Assoc)
	}
	if cfg.PartialTagBits <= 0 || cfg.PartialTagBits > 32 {
		return nil, fmt.Errorf("nuca: partial tag bits %d out of range", cfg.PartialTagBits)
	}

	grid := floorplan.NewNUCAGrid(int(cfg.CapacityBytes>>20), cfg.BankKB)
	latencies := m.NUCABankLatencies(grid)
	energies := m.NUCABankEnergies(grid)
	order := grid.BanksByDistance()

	// Group the 16 ways into 8 latency groups of 2; each group owns a
	// chunk of 16 banks (by distance), one bank per 16 consecutive sets.
	numGroups := 8
	if cfg.Assoc < numGroups {
		numGroups = cfg.Assoc
	}
	banksPerGroup := numBanks / numGroups
	bankTab := make([]int32, numGroups*banksPerGroup)
	for g := 0; g < numGroups; g++ {
		chunk := order[g*banksPerGroup : (g+1)*banksPerGroup]
		for i, b := range chunk {
			bankTab[g*banksPerGroup+i] = int32(b)
		}
	}

	wpg := cfg.Assoc / numGroups
	wayGroup := make([]int8, cfg.Assoc)
	for w := range wayGroup {
		wayGroup[w] = int8(w / wpg)
	}

	labels := make([]string, numGroups)
	for g := range labels {
		labels[g] = fmt.Sprintf("group-%d", g)
	}

	lat64 := make([]int64, numBanks)
	for i, l := range latencies {
		lat64[i] = int64(l)
	}
	return &Cache{
		cfg:       cfg,
		geo:       geo,
		idx:       geo.Index(),
		numGroups: numGroups,
		assoc:     cfg.Assoc,
		wpg:       wpg,
		wayGroup:  wayGroup,
		lines:     make([]line, geo.NumSets()*cfg.Assoc),
		banks:     make([]memsys.Port, numBanks),
		bankLat:   lat64,
		bankNJ:    energies,
		bankTab:   bankTab,
		bpg:       banksPerGroup,
		bpgMask:   uint32(banksPerGroup - 1),
		bpgPow2:   mathx.IsPow2(int64(banksPerGroup)),
		ssLat:     int64(m.SmartSearchCyc),
		ssNJ:      m.SmartSearchNJ,
		mask:      (1 << uint(cfg.PartialTagBits)) - 1,
		matchBuf:  make([]bool, numGroups),
		mem:       mem,
		dist:      stats.NewDistribution(labels...),
	}, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config, m *cacti.Model, mem *memsys.Memory) *Cache {
	c, err := New(cfg, m, mem)
	if err != nil {
		panic(err)
	}
	return c
}

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

func (c *Cache) groupOfWay(way int) int { return int(c.wayGroup[way]) }

func (c *Cache) line(set, way int) *line { return &c.lines[set*c.assoc+way] }

// bankOf returns the bank holding the ways of `group` for `set`.
func (c *Cache) bankOf(group, set int) int {
	if c.bpgPow2 {
		return int(c.bankTab[group*c.bpg+int(uint32(set)&c.bpgMask)])
	}
	return int(c.bankTab[group*c.bpg+set%c.bpg])
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

func (c *Cache) touch(set, way int) {
	c.clock++
	c.line(set, way).stamp = c.clock
}

// lookup finds addr in its set without side effects.
func (c *Cache) lookup(addr uint64) (way int, ok bool) {
	return c.findWay(c.idx.SetIndex(addr), c.idx.Tag(addr))
}

// findWay finds the way holding (set, tag) without side effects.
func (c *Cache) findWay(set int, tag uint64) (way int, ok bool) {
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if l := &c.lines[base+w]; l.valid && l.tag == tag {
			return w, true
		}
	}
	return -1, false
}

// partialMatches fills the per-group scratch buffer with whether any
// valid way in the set partially matches addr's tag — the smart-search
// array's answer. The buffer is owned by the cache and overwritten on
// the next access.
func (c *Cache) partialMatches(set int, tag uint64) []bool {
	out := c.matchBuf
	for g := range out {
		out[g] = false
	}
	masked := tag & c.mask
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag&c.mask == masked {
			out[c.wayGroup[w]] = true
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

	way, hit := c.findWay(set, tag)

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
	default:
		panic("nuca: unknown search policy")
	}

	if hit {
		g := c.groupOfWay(way)
		c.dist.AddHit(g)
		if c.probe != nil {
			c.probe.Emit(obs.Hit(now, g, done-now))
		}
		l := c.line(set, way)
		if write {
			l.dirty = true
		}
		c.touch(set, way)
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
	c.fill(now, set, tag, write)
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
	for g := 0; g < c.numGroups; g++ {
		t = c.probeBank(c.bankOf(g, set), t)
		if hit && g == c.groupOfWay(way) {
			return t
		}
	}
	return t
}

// searchParallel is ss-performance: every group's bank is probed at once;
// a hit completes when its bank responds; a miss with no partial match is
// detected as soon as the smart-search array answers, otherwise when the
// slowest probed bank responds.
func (c *Cache) searchParallel(now int64, set, way int, hit bool, matches []bool) int64 {
	latest := now + c.ssLat
	var hitDone int64
	for g := 0; g < c.numGroups; g++ {
		resp := c.probeBank(c.bankOf(g, set), now)
		if hit && g == c.groupOfWay(way) {
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
func (c *Cache) searchSequential(now int64, set, way int, hit bool, matches []bool) int64 {
	t := now + c.ssLat
	probed := false
	for g := 0; g < c.numGroups; g++ {
		if !matches[g] {
			continue
		}
		probed = true
		t = c.probeBank(c.bankOf(g, set), t)
		if hit && g == c.groupOfWay(way) {
			return t
		}
		c.hot.falsePartialHits++
	}
	_ = probed
	return t // miss: confirmed after the last candidate (or the ss array)
}

// promote bubbles the block at (set, way) one group closer to the
// processor by swapping with the LRU way of the adjacent faster group
// (paper Sec. 2.2's "bubble replacement").
func (c *Cache) promote(now int64, set, way int) {
	g := c.groupOfWay(way)
	target := c.victimWay(set, g-1)
	a, b := c.line(set, way), c.line(set, target)
	swapped := b.valid
	// Stamps travel with the lines: the promoted block keeps its fresh
	// recency, the demoted one keeps its old stamp.
	*a, *b = *b, *a
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

// victimWay picks the way of `group` to displace: an invalid way when one
// exists, else the LRU of the group's ways.
func (c *Cache) victimWay(set, group int) int {
	base := group * c.wpg
	victim := base
	var best uint64 = ^uint64(0)
	for w := base; w < base+c.wpg; w++ {
		l := c.line(set, w)
		if !l.valid {
			return w
		}
		if l.stamp < best {
			best = l.stamp
			victim = w
		}
	}
	return victim
}

// fill installs a new block into the slowest group, evicting that group's
// LRU way (the paper: "D-NUCA evicts the block in the slowest way of the
// set", which need not be the set's LRU block).
func (c *Cache) fill(now int64, set int, tag uint64, write bool) {
	slowest := c.numGroups - 1
	way := c.victimWay(set, slowest)
	l := c.line(set, way)
	bank := c.bankOf(slowest, set)
	if l.valid {
		c.hot.evictions++
		if c.probe != nil {
			c.probe.Emit(obs.Evict(now, slowest, l.dirty))
		}
		if l.dirty {
			c.hot.writebacks++
			c.chargeBank(bank, now) // victim read
			c.mem.Write()
		}
	}
	*l = line{valid: true, dirty: write, tag: tag}
	c.touch(set, way)
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
	way, ok := c.lookup(addr)
	if !ok {
		return -1
	}
	return c.groupOfWay(way)
}

// Contains reports whether addr is resident (no side effects).
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.lookup(addr)
	return ok
}

// NumGroups returns the number of latency groups per set.
func (c *Cache) NumGroups() int { return c.numGroups }

// CheckInvariants validates tag-state consistency: no duplicate tags
// within a set and all stamps within the clock bound.
func (c *Cache) CheckInvariants() error {
	for set := 0; set < c.geo.NumSets(); set++ {
		seen := make(map[uint64]bool)
		for w := 0; w < c.assoc; w++ {
			l := c.line(set, w)
			if !l.valid {
				continue
			}
			if seen[l.tag] {
				return fmt.Errorf("set %d holds tag %#x twice", set, l.tag)
			}
			seen[l.tag] = true
			if l.stamp > c.clock {
				return fmt.Errorf("set %d way %d stamp %d beyond clock %d", set, w, l.stamp, c.clock)
			}
		}
	}
	return nil
}

var _ memsys.LowerLevel = (*Cache)(nil)

package nurapid

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
)

func testModel() *cacti.Model { return cacti.Default() }

func testMemory() *memsys.Memory { return memsys.NewMemory(128) }

func build(t *testing.T, mutate func(*Config)) (*Cache, *memsys.Memory) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	mem := memsys.NewMemory(cfg.BlockBytes)
	c, err := New(cfg, cacti.Default(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

func blockAddr(i int) uint64 { return uint64(i) * 128 }

func TestNewRejectsBadConfigs(t *testing.T) {
	m := cacti.Default()
	mem := memsys.NewMemory(128)
	bad := []func(*Config){
		func(c *Config) { c.NumDGroups = 3 }, // 8 MB not divisible
		func(c *Config) { c.NumDGroups = 0 },
		func(c *Config) { c.CapacityBytes = 12345 }, // not whole MB
		func(c *Config) { c.Assoc = 0 },
		func(c *Config) { c.RestrictFrames = 1000 }, // does not divide 16384
		func(c *Config) { c.Placement = SetAssociative; c.NumDGroups = 8; c.Assoc = 12 },
		func(c *Config) { c.Placement = Placement(9) },
	}
	for i, f := range bad {
		cfg := DefaultConfig()
		f(&cfg)
		if _, err := New(cfg, m, mem); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if DemotionOnly.String() != "demotion-only" || NextFastest.String() != "next-fastest" ||
		Fastest.String() != "fastest" {
		t.Fatal("promotion strings wrong")
	}
	if RandomDistance.String() != "random" || LRUDistance.String() != "lru" {
		t.Fatal("distance policy strings wrong")
	}
	if DistanceAssociative.String() != "distance-associative" || SetAssociative.String() != "set-associative" {
		t.Fatal("placement strings wrong")
	}
	if Promotion(9).String() == "" || DistancePolicy(9).String() == "" || Placement(9).String() == "" {
		t.Fatal("unknown enums must render")
	}
}

func TestMissPlacesInFastestGroup(t *testing.T) {
	c, mem := build(t, nil)
	r := c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	if r.Hit {
		t.Fatal("cold access must miss")
	}
	if g := c.GroupOf(blockAddr(1)); g != 0 {
		t.Fatalf("new block in d-group %d, want 0", g)
	}
	if mem.Accesses != 1 {
		t.Fatalf("memory accesses = %d", mem.Accesses)
	}
}

func TestHitLatencyFastestGroup(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	r := c.Access(memsys.Req{Now: 10000, Addr: blockAddr(1), Write: false})
	if !r.Hit || r.Group != 0 {
		t.Fatalf("want d-group-0 hit, got %+v", r)
	}
	// 4 d-groups: fastest latency is 14 cycles (Table 4).
	if r.DoneAt != 10000+14 {
		t.Fatalf("hit done at %d, want %d", r.DoneAt, 10000+14)
	}
}

func TestMissLatencyIncludesTagAndMemory(t *testing.T) {
	c, _ := build(t, nil)
	r := c.Access(memsys.Req{Now: 500, Addr: blockAddr(9), Write: false})
	want := int64(500 + 8 + 194) // tag probe + memory
	if r.DoneAt != want {
		t.Fatalf("miss done at %d, want %d", r.DoneAt, want)
	}
}

func TestOnePortSerializesHits(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false}) // issued while the port is busy
	r := c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	// The cold miss holds the port for the 4-cycle issue interval, the
	// second access for another 4; the third starts at cycle 8 and
	// completes a 14-cycle d-group-0 hit at 22.
	if r.DoneAt != 8+14 {
		t.Fatalf("third access done at %d, want 22", r.DoneAt)
	}
}

func TestSwapsExtendThePort(t *testing.T) {
	// A promotion's block movement must complete before the next access
	// starts (the paper's one-port constraint).
	c, _ := build(t, nil)
	fillGroups(c, 2)
	target := blockAddr(0)
	if c.GroupOf(target) < 1 {
		t.Fatal("setup: block must sit beyond d-group 0")
	}
	free := c.port.FreeAt()
	now := free + 100
	c.Access(memsys.Req{Now: now, Addr: target, Write: false}) // hit + promotion swap
	// Port held for the issue interval plus 2 movement operations.
	want := now + accessIssueInterval + 2*movementOccupancy
	if c.port.FreeAt() != want {
		t.Fatalf("port free at %d, want %d", c.port.FreeAt(), want)
	}
}

// fillGroups streams enough distinct blocks through the cache to
// populate the first n d-groups (2 MB each in the default config).
func fillGroups(c *Cache, n int) {
	blocks := n * (2 << 20) / 128
	for i := 0; i < blocks; i++ {
		c.Access(memsys.Req{Now: int64(i) * 1000, Addr: blockAddr(i), Write: false})
	}
}

func TestSequentialFillDemotesOldBlocks(t *testing.T) {
	c, _ := build(t, nil)
	fillGroups(c, 2) // 4 MB of distinct blocks
	// The earliest blocks must have been demoted out of d-group 0.
	if g := c.GroupOf(blockAddr(0)); g < 1 {
		t.Fatalf("oldest block still in d-group %d, want >= 1", g)
	}
	// The most recent block must be in d-group 0.
	last := 2*(2<<20)/128 - 1
	if g := c.GroupOf(blockAddr(last)); g != 0 {
		t.Fatalf("newest block in d-group %d, want 0", g)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoEvictionUntilCapacity(t *testing.T) {
	c, _ := build(t, nil)
	fillGroups(c, 4) // exactly 8 MB of distinct blocks
	if ev := c.Counters().Get("evictions"); ev != 0 {
		t.Fatalf("%d evictions before exceeding capacity", ev)
	}
	for i := 0; i < 4*(2<<20)/128; i++ {
		if !c.Contains(blockAddr(i)) {
			t.Fatalf("block %d missing although capacity not exceeded", i)
		}
	}
}

func TestNextFastestPromotesOneGroup(t *testing.T) {
	c, _ := build(t, nil)
	fillGroups(c, 2)
	target := blockAddr(0)
	g0 := c.GroupOf(target)
	if g0 < 1 {
		t.Fatalf("setup: block in d-group %d", g0)
	}
	r := c.Access(memsys.Req{Now: 1e9, Addr: target, Write: false})
	if !r.Hit || r.Group != g0 {
		t.Fatalf("hit reported group %d, want %d", r.Group, g0)
	}
	if g := c.GroupOf(target); g != g0-1 {
		t.Fatalf("after hit block in d-group %d, want %d", g, g0-1)
	}
	if c.Counters().Get("promotions") == 0 {
		t.Fatal("promotion not counted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFastestPromotesToGroupZero(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.Promotion = Fastest })
	fillGroups(c, 3)
	target := blockAddr(0)
	if g := c.GroupOf(target); g < 2 {
		t.Fatalf("setup: block in d-group %d, want >= 2", g)
	}
	c.Access(memsys.Req{Now: 1e9, Addr: target, Write: false})
	if g := c.GroupOf(target); g != 0 {
		t.Fatalf("after hit block in d-group %d, want 0", g)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDemotionOnlyNeverPromotes(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.Promotion = DemotionOnly })
	fillGroups(c, 2)
	target := blockAddr(0)
	g0 := c.GroupOf(target)
	if g0 < 1 {
		t.Fatalf("setup: block in d-group %d", g0)
	}
	for i := 0; i < 5; i++ {
		c.Access(memsys.Req{Now: 1e9 + int64(i)*1000, Addr: target, Write: false})
	}
	if g := c.GroupOf(target); g != g0 {
		t.Fatalf("demotion-only moved the block from %d to %d", g0, g)
	}
	if c.Counters().Get("promotions") != 0 {
		t.Fatal("demotion-only must not promote")
	}
}

func TestMissesIndependentOfPromotionPolicy(t *testing.T) {
	// Distance replacement never evicts (paper Sec. 2.2), so the miss
	// stream is identical across promotion policies.
	var missCounts []int64
	for _, pol := range []Promotion{DemotionOnly, NextFastest, Fastest} {
		c, _ := build(t, func(cfg *Config) { cfg.Promotion = pol })
		rng := mathx.NewRNG(7)
		for i := 0; i < 60000; i++ {
			c.Access(memsys.Req{Now: int64(i) * 30, Addr: blockAddr(rng.Intn(100000)), Write: rng.Bool(0.2)})
		}
		missCounts = append(missCounts, c.Counters().Get("misses"))
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
	if missCounts[0] != missCounts[1] || missCounts[1] != missCounts[2] {
		t.Fatalf("miss counts differ across policies: %v", missCounts)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c, mem := build(t, nil)
	set := c.geo.SetIndex(blockAddr(0))
	stride := c.geo.NumSets()                                     // in blocks
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(0), Write: true}) // dirty
	// Evict it with 8 conflicting fills into the same set.
	for i := 1; i <= 8; i++ {
		a := blockAddr(i * stride)
		if c.geo.SetIndex(a) != set {
			t.Fatal("stride math wrong")
		}
		c.Access(memsys.Req{Now: int64(i) * 1000, Addr: a, Write: false})
	}
	if c.Contains(blockAddr(0)) {
		t.Fatal("victim should have been evicted")
	}
	if mem.Writes != 1 {
		t.Fatalf("memory writes = %d, want 1", mem.Writes)
	}
	if c.Counters().Get("writebacks") != 1 {
		t.Fatal("writeback counter wrong")
	}
}

func TestHotSetFitsInFastestGroup(t *testing.T) {
	// The paper's motivating property: with distance associativity, all
	// 8 ways of a hot set can live in d-group 0.
	c, _ := build(t, nil)
	set := c.geo.SetIndex(blockAddr(0))
	stride := c.geo.NumSets()
	for i := 0; i < 8; i++ {
		c.Access(memsys.Req{Now: int64(i) * 1000, Addr: blockAddr(i * stride), Write: false})
	}
	for i := 0; i < 8; i++ {
		a := blockAddr(i * stride)
		if c.geo.SetIndex(a) != set {
			t.Fatal("stride math wrong")
		}
		if g := c.GroupOf(a); g != 0 {
			t.Fatalf("hot-set way %d in d-group %d, want 0", i, g)
		}
	}
}

func TestSetAssociativePlacementSplitsHotSet(t *testing.T) {
	// The same hot set under set-associative placement: only 2 frames
	// per d-group per set, so the 8 blocks spread 2-2-2-2.
	c, _ := build(t, func(cfg *Config) { cfg.Placement = SetAssociative })
	stride := c.geo.NumSets()
	for i := 0; i < 8; i++ {
		c.Access(memsys.Req{Now: int64(i) * 1000, Addr: blockAddr(i * stride), Write: false})
	}
	perGroup := make(map[int]int)
	for i := 0; i < 8; i++ {
		perGroup[c.GroupOf(blockAddr(i*stride))]++
	}
	for g := 0; g < 4; g++ {
		if perGroup[g] != 2 {
			t.Fatalf("d-group %d holds %d hot-set blocks, want 2 (distribution %v)",
				g, perGroup[g], perGroup)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPointerBits(t *testing.T) {
	// Sec. 2.4.3: full flexibility in an 8-MB/128-B cache needs 16-bit
	// pointers; restricting each block to 256 frames per d-group with 4
	// d-groups reduces them to 10 bits.
	c, _ := build(t, nil)
	if bits := c.PointerBits(); bits != 16 {
		t.Fatalf("unrestricted pointer bits = %d, want 16", bits)
	}
	c, _ = build(t, func(cfg *Config) { cfg.RestrictFrames = 256 })
	if bits := c.PointerBits(); bits != 10 {
		t.Fatalf("restricted pointer bits = %d, want 10", bits)
	}
}

func TestRestrictedPlacementKeepsInvariants(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.RestrictFrames = 256 })
	rng := mathx.NewRNG(11)
	for i := 0; i < 80000; i++ {
		c.Access(memsys.Req{Now: int64(i) * 25, Addr: blockAddr(rng.Intn(90000)), Write: rng.Bool(0.25)})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.Counters().Get("misses") == 0 || c.Counters().Get("demotions") == 0 {
		t.Fatal("storm should have produced misses and demotions")
	}
}

func TestLRUDistanceKeepsInvariants(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.Distance = LRUDistance })
	rng := mathx.NewRNG(13)
	for i := 0; i < 80000; i++ {
		c.Access(memsys.Req{Now: int64(i) * 25, Addr: blockAddr(rng.Intn(90000)), Write: rng.Bool(0.25)})
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantStormAllConfigs(t *testing.T) {
	// Cross product of the policy space under a hot/cold mixed workload.
	for _, groups := range []int{2, 4, 8} {
		for _, pol := range []Promotion{DemotionOnly, NextFastest, Fastest} {
			for _, dp := range []DistancePolicy{RandomDistance, LRUDistance} {
				c, _ := build(t, func(cfg *Config) {
					cfg.NumDGroups = groups
					cfg.Promotion = pol
					cfg.Distance = dp
				})
				rng := mathx.NewRNG(uint64(groups)*100 + uint64(pol)*10 + uint64(dp))
				zipf := mathx.NewZipf(rng.Split(), 0.9, 120000)
				for i := 0; i < 40000; i++ {
					c.Access(memsys.Req{Now: int64(i) * 30, Addr: blockAddr(zipf.Draw()), Write: rng.Bool(0.3)})
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("groups=%d %v/%v: %v", groups, pol, dp, err)
				}
			}
		}
	}
}

func TestGroupAccessCounting(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})    // miss: 1 fill write in group 0
	c.Access(memsys.Req{Now: 1000, Addr: blockAddr(1), Write: false}) // hit: 1 serve in group 0
	ga := c.GroupAccesses()
	if ga[0] != 2 {
		t.Fatalf("group 0 accesses = %d, want 2", ga[0])
	}
	if ga[1] != 0 || ga[2] != 0 || ga[3] != 0 {
		t.Fatalf("unexpected accesses in slower groups: %v", ga)
	}
}

func TestSwapAccountingOnPromotion(t *testing.T) {
	c, _ := build(t, nil)
	fillGroups(c, 2)
	before := c.GroupAccesses()
	target := blockAddr(0)
	g := c.GroupOf(target)
	c.Access(memsys.Req{Now: 1e9, Addr: target, Write: false}) // hit + next-fastest promotion
	after := c.GroupAccesses()
	// Serve (1 in g) + victim read and promoted write in g-1 (2) +
	// victim write into g (1).
	if after[g]-before[g] != 2 {
		t.Fatalf("group %d accesses grew by %d, want 2", g, after[g]-before[g])
	}
	if after[g-1]-before[g-1] != 2 {
		t.Fatalf("group %d accesses grew by %d, want 2", g-1, after[g-1]-before[g-1])
	}
}

func TestDistributionTracksGroups(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	c.Access(memsys.Req{Now: 1000, Addr: blockAddr(1), Write: false})
	d := c.Distribution()
	if d.MissCount() != 1 || d.HitCount(0) != 1 {
		t.Fatalf("distribution: misses=%d g0=%d", d.MissCount(), d.HitCount(0))
	}
	if d.NumCategories() != 4 {
		t.Fatalf("categories = %d, want 4", d.NumCategories())
	}
}

func TestGroupLatenciesMatchTable4(t *testing.T) {
	c, _ := build(t, nil)
	want := []int64{14, 23, 25, 34}
	got := c.GroupLatencies()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies %v, want %v", got, want)
		}
	}
}

func TestNameAndConfig(t *testing.T) {
	c, _ := build(t, nil)
	if c.Name() != "nurapid-4g-next-fastest" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Config().NumDGroups != 4 {
		t.Fatal("Config accessor wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on bad config")
		}
	}()
	cfg := DefaultConfig()
	cfg.NumDGroups = 3
	MustNew(cfg, cacti.Default(), memsys.NewMemory(128))
}

func TestEnergyAccumulates(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	e1 := c.EnergyNJ()
	c.Access(memsys.Req{Now: 1000, Addr: blockAddr(1), Write: false})
	if c.EnergyNJ() <= e1 || e1 <= 0 {
		t.Fatalf("energy not accumulating: %v -> %v", e1, c.EnergyNJ())
	}
}

// outcomeProbe keeps the latest KindHit/KindMiss event.
type outcomeProbe struct{ e obs.Event }

func (p *outcomeProbe) Emit(e obs.Event) {
	if e.Kind == obs.KindHit || e.Kind == obs.KindMiss {
		p.e = e
	}
}

// TestLatencyProfileMatchesChargedLatency checks that the static
// profile reproduces what an access is charged on an idle port: a cold
// miss costs the tag probe plus the memory round trip, a hit in each
// d-group costs that group's latency, and neither is stamped with a
// port wait or ripple.
func TestLatencyProfileMatchesChargedLatency(t *testing.T) {
	c, mem := build(t, nil)
	p := c.LatencyProfile()
	if !p.Valid() || p.TagCycles != c.tagLat || p.MemCycles != mem.Latency() {
		t.Fatalf("profile %+v does not describe an %d-cycle tag probe over %d-cycle memory",
			p, c.tagLat, mem.Latency())
	}
	var rec outcomeProbe
	c.SetProbe(&rec)
	r := c.Access(memsys.Req{Now: 500, Addr: blockAddr(9)})
	if e := rec.e; r.Hit || r.DoneAt != 500+p.TagCycles+p.MemCycles || e.Kind != obs.KindMiss || e.PortWait != 0 || e.Ripple != 0 {
		t.Fatalf("cold miss = %+v reported as %+v, want done at %d with no port wait",
			r, e, 500+p.TagCycles+p.MemCycles)
	}
	fillGroups(c, c.nGroups)
	lats := c.GroupLatencies()
	now := int64(1) << 40
	seen := map[int]bool{}
	for i := 0; i < c.nGroups*(2<<20)/128 && len(seen) < c.nGroups; i += 97 {
		g := c.GroupOf(blockAddr(i))
		if g < 0 || seen[g] {
			continue
		}
		seen[g] = true
		r := c.Access(memsys.Req{Now: now, Addr: blockAddr(i)})
		if e := rec.e; !r.Hit || r.Group != g || r.DoneAt-now != lats[g] || e.Lat != lats[g] || e.PortWait != 0 || e.Ripple != 0 {
			t.Errorf("hit in d-group %d = %+v reported as %+v, want latency %d with no port wait",
				g, r, e, lats[g])
		}
		now += 1 << 20
	}
	if len(seen) != c.nGroups {
		t.Fatalf("found blocks in only %d of %d d-groups", len(seen), c.nGroups)
	}
}

// TestPortStampsMatchChargedLatency checks that the port stamps on
// KindHit/KindMiss reproduce what every access is charged, over a
// contended stream whose demotion chains leave port debt behind: a hit
// costs its stamped wait plus its d-group's latency, a miss its wait
// plus the profiled tag probe and memory round trip, and the ripple is
// a part of the wait.
func TestPortStampsMatchChargedLatency(t *testing.T) {
	// RestrictFrames 8 on 4 MB gives each d-group 1024 partitions of 8
	// frames; 32 blocks 1024 sets apart share one partition, so cycling
	// them churns demotion chains through it.
	c, mem := build(t, func(cfg *Config) {
		cfg.CapacityBytes = 4 << 20
		cfg.RestrictFrames = 8
	})
	p := c.LatencyProfile()
	if !p.Valid() || p.TagCycles != c.tagLat || p.MemCycles != mem.Latency() {
		t.Fatalf("profile %+v does not describe an %d-cycle tag probe over %d-cycle memory",
			p, c.tagLat, mem.Latency())
	}
	var rec outcomeProbe
	c.SetProbe(&rec)
	lats := c.GroupLatencies()
	var hits, misses, waited, rippled int
	now := int64(0)
	for i := 0; i < 4_000; i++ {
		addr := 0x1000 + uint64((i*7)%512)*128
		if i%3 == 0 {
			addr = 0x8000_0000 + uint64((i/3)%32)*1024*128
		}
		r := c.Access(memsys.Req{Now: now, Addr: addr, Write: i%5 == 0})
		e := rec.e
		wait, ripple := int64(e.PortWait), int64(e.Ripple)
		if e.Now != now || ripple < 0 || ripple > wait {
			t.Fatalf("access %d: outcome %+v, want now %d and 0 <= ripple <= wait", i, e, now)
		}
		if r.Hit {
			if e.Kind != obs.KindHit || int(e.Group) != r.Group || e.Lat != wait+lats[r.Group] || r.DoneAt != now+e.Lat {
				t.Fatalf("access %d: hit %+v reported as %+v, want latency %d + %d",
					i, r, e, wait, lats[r.Group])
			}
			hits++
		} else {
			if want := now + wait + p.TagCycles + p.MemCycles; e.Kind != obs.KindMiss || r.DoneAt != want {
				t.Fatalf("access %d: miss %+v reported as %+v, want done at %d", i, r, e, want)
			}
			misses++
		}
		if wait > 0 {
			waited++
		}
		if ripple > 0 {
			rippled++
		}
		if i%4 == 3 { // bursts of four arrive at one cycle
			now += 18
		}
	}
	if hits == 0 || misses == 0 || waited == 0 || rippled == 0 {
		t.Fatalf("stream too gentle: %d hits, %d misses, %d waited, %d rippled",
			hits, misses, waited, rippled)
	}
}

// TestGroupOccupancyTracksFill checks the per-d-group frame count: all
// zero when empty, the fastest group full once it overflows, and the
// total equal to the distinct blocks placed while capacity lasts.
func TestGroupOccupancyTracksFill(t *testing.T) {
	c, _ := build(t, nil)
	for g, n := range c.GroupOccupancy() {
		if n != 0 {
			t.Fatalf("empty cache: d-group %d holds %d frames", g, n)
		}
	}
	fillGroups(c, 2)
	perGroup := (2 << 20) / 128
	occ := c.GroupOccupancy()
	sum := 0
	for g, n := range occ {
		if n < 0 || n > perGroup {
			t.Errorf("d-group %d holds %d frames, capacity %d", g, n, perGroup)
		}
		sum += n
	}
	if occ[0] != perGroup {
		t.Errorf("fastest d-group holds %d frames, want it full (%d)", occ[0], perGroup)
	}
	if sum != 2*perGroup {
		t.Errorf("d-groups hold %d frames in total, want %d", sum, 2*perGroup)
	}
}

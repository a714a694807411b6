package nuca

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
)

func build(t *testing.T, mutate func(*Config)) (*Cache, *memsys.Memory) {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	mem := memsys.NewMemory(BlockBytes)
	c, err := New(cfg, cacti.Default(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return c, mem
}

func blockAddr(i int) uint64 { return uint64(i) * 128 }

func TestNewRejectsBadConfigs(t *testing.T) {
	m := cacti.Default()
	mem := memsys.NewMemory(BlockBytes)
	for _, p := range []SearchPolicy{-1, Incremental + 1, 5} {
		if _, err := New(Config{Policy: p}, m, mem); err == nil {
			t.Errorf("unknown policy %v accepted", p)
		}
	}
	for _, p := range []SearchPolicy{SSPerformance, SSEnergy, Incremental} {
		if _, err := New(Config{Policy: p}, m, mem); err != nil {
			t.Errorf("policy %v rejected: %v", p, err)
		}
	}
}

func TestSearchPolicyString(t *testing.T) {
	if SSPerformance.String() != "ss-performance" || SSEnergy.String() != "ss-energy" {
		t.Fatal("policy strings wrong")
	}
	if SearchPolicy(5).String() == "" {
		t.Fatal("unknown policy must render")
	}
}

func TestInitialPlacementInSlowestGroup(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	if g := c.GroupOf(blockAddr(1)); g != c.NumGroups()-1 {
		t.Fatalf("new block in group %d, want slowest %d", g, c.NumGroups()-1)
	}
}

func TestBubblePromotionOneGroupPerHit(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	for hits := 1; hits <= c.NumGroups()-1; hits++ {
		c.Access(memsys.Req{Now: int64(hits) * 10000, Addr: blockAddr(1), Write: false})
		want := c.NumGroups() - 1 - hits
		if g := c.GroupOf(blockAddr(1)); g != want {
			t.Fatalf("after %d hits block in group %d, want %d", hits, g, want)
		}
	}
	// Further hits keep it in group 0.
	c.Access(memsys.Req{Now: 1e9, Addr: blockAddr(1), Write: false})
	if g := c.GroupOf(blockAddr(1)); g != 0 {
		t.Fatalf("block left group 0: %d", g)
	}
}

func TestMissLatencySSPerformanceEarlyDetection(t *testing.T) {
	c, mem := build(t, nil)
	// Empty cache: no partial match anywhere, so the miss is detected
	// after the smart-search latency and memory starts immediately.
	r := c.Access(memsys.Req{Now: 1000, Addr: blockAddr(42), Write: false})
	want := int64(1000+3) + mem.Latency()
	if r.DoneAt != want {
		t.Fatalf("early-detected miss done at %d, want %d", r.DoneAt, want)
	}
}

func TestHitLatencyReflectsGroupDistance(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	// First re-access: hit in slowest group (avg 29 cycles per Table 4).
	r := c.Access(memsys.Req{Now: 100000, Addr: blockAddr(1), Write: false})
	if !r.Hit {
		t.Fatal("must hit")
	}
	slow := r.DoneAt - 100000
	// Bubble the block to group 0, then measure again.
	for i := 0; i < 8; i++ {
		c.Access(memsys.Req{Now: int64(200000 + i*10000), Addr: blockAddr(1), Write: false})
	}
	r = c.Access(memsys.Req{Now: 1000000, Addr: blockAddr(1), Write: false})
	fast := r.DoneAt - 1000000
	if fast >= slow {
		t.Fatalf("fast-group hit (%d cycles) must beat slow-group hit (%d)", fast, slow)
	}
	if fast != 7 {
		t.Fatalf("fastest-group hit latency %d, want 7 (Table 4 average)", fast)
	}
}

func TestSSEnergyProbesOnlyMatchingBanks(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.Policy = SSEnergy })
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	before := c.Counters().Get("bank_accesses")
	c.Access(memsys.Req{Now: 100000, Addr: blockAddr(1)}) // hit: 1 probe + swap traffic (4)
	probes := c.Counters().Get("bank_accesses") - before
	if probes != 1+4 {
		t.Fatalf("ss-energy hit used %d bank accesses, want 5 (1 probe + 4 swap)", probes)
	}
}

func TestSSPerformanceMulticastsAllGroups(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	before := c.Counters().Get("bank_accesses")
	c.Access(memsys.Req{Now: 100000, Addr: blockAddr(1), Write: false}) // hit: 8 probes + 4 swap accesses
	probes := c.Counters().Get("bank_accesses") - before
	if probes != 8+4 {
		t.Fatalf("ss-performance hit used %d bank accesses, want 12", probes)
	}
}

func TestSSEnergyCheaperThanSSPerformance(t *testing.T) {
	run := func(policy SearchPolicy) float64 {
		c, _ := build(t, func(cfg *Config) { cfg.Policy = policy })
		rng := mathx.NewRNG(3)
		for i := 0; i < 20000; i++ {
			c.Access(memsys.Req{Now: int64(i) * 50, Addr: blockAddr(rng.Intn(30000)), Write: rng.Bool(0.2)})
		}
		return c.EnergyNJ()
	}
	perf, energy := run(SSPerformance), run(SSEnergy)
	if energy >= perf {
		t.Fatalf("ss-energy (%.0f nJ) must consume less than ss-performance (%.0f nJ)", energy, perf)
	}
}

func TestEvictionFromSlowestWay(t *testing.T) {
	c, mem := build(t, nil)
	set0 := blockAddr(0)
	stride := c.idx.NumSets() // in blocks
	// Fill all 16 ways of set 0; every new block lands in the slowest
	// group and displaces its LRU way, so with 16 fills and no hits only
	// the slowest group's 2 ways survive plus earlier bubbled... in fact
	// without hits nothing bubbles: each fill evicts the previous one
	// once the 2 slowest ways are full.
	c.Access(memsys.Req{Now: 0, Addr: set0, Write: true}) // dirty
	c.Access(memsys.Req{Now: 1000, Addr: blockAddr(stride), Write: false})
	c.Access(memsys.Req{Now: 2000, Addr: blockAddr(2 * stride), Write: false})
	// Third fill into the same set: the slowest group's 2 ways held
	// blocks 0 and stride; block 0 is LRU and gets evicted (dirty).
	if c.Contains(set0) {
		t.Fatal("dirty LRU of the slowest group should have been evicted")
	}
	if mem.Writes != 1 {
		t.Fatalf("memory writes = %d, want 1", mem.Writes)
	}
	if c.Counters().Get("evictions") != 1 {
		t.Fatal("eviction counter wrong")
	}
}

func TestEvictionIsNotGlobalLRU(t *testing.T) {
	// The paper: the evicted block may not be the set's LRU block. A
	// frequently-hit block that bubbled inward survives even when a
	// colder block sits in a faster way... conversely, a recently used
	// block still in the slowest group is evicted before older faster
	// blocks.
	c, _ := build(t, nil)
	stride := c.idx.NumSets()
	// Block A bubbles to group 6 with one hit.
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(0), Write: false})
	c.Access(memsys.Req{Now: 1000, Addr: blockAddr(0), Write: false})
	// Blocks B and C fill the slowest group.
	c.Access(memsys.Req{Now: 2000, Addr: blockAddr(stride), Write: false})
	c.Access(memsys.Req{Now: 3000, Addr: blockAddr(2 * stride), Write: false})
	// D fills: evicts B (LRU of slowest group) even though A is older
	// in absolute terms but already promoted.
	c.Access(memsys.Req{Now: 4000, Addr: blockAddr(3 * stride), Write: false})
	if !c.Contains(blockAddr(0)) {
		t.Fatal("promoted block must survive")
	}
	if c.Contains(blockAddr(stride)) {
		t.Fatal("slowest-group LRU must be the victim")
	}
}

func TestDistributionTracksGroups(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	c.Access(memsys.Req{Now: 10000, Addr: blockAddr(1), Write: false})
	d := c.Distribution()
	if d.MissCount() != 1 {
		t.Fatalf("misses = %d", d.MissCount())
	}
	if d.HitCount(c.NumGroups()-1) != 1 {
		t.Fatal("hit must be attributed to the slowest group")
	}
}

func TestInvariantsAfterStorm(t *testing.T) {
	for _, policy := range []SearchPolicy{SSPerformance, SSEnergy} {
		c, _ := build(t, func(cfg *Config) { cfg.Policy = policy })
		rng := mathx.NewRNG(uint64(policy) + 21)
		zipf := mathx.NewZipf(rng.Split(), 0.9, 150000)
		for i := 0; i < 60000; i++ {
			c.Access(memsys.Req{Now: int64(i) * 40, Addr: blockAddr(zipf.Draw()), Write: rng.Bool(0.3)})
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if c.Counters().Get("promotions") == 0 {
			t.Fatalf("%v: storm should promote blocks", policy)
		}
	}
}

func TestBankContentionSerializes(t *testing.T) {
	c, _ := build(t, nil)
	c.Access(memsys.Req{Now: 0, Addr: blockAddr(1), Write: false})
	// Two simultaneous hits to the same block contend for its bank.
	r1 := c.Access(memsys.Req{Now: 100000, Addr: blockAddr(1), Write: false})
	r2 := c.Access(memsys.Req{Now: 100000, Addr: blockAddr(1), Write: false})
	if r2.DoneAt <= r1.DoneAt {
		t.Fatalf("second access (%d) must finish after the first (%d)", r2.DoneAt, r1.DoneAt)
	}
}

func TestNameAndConfig(t *testing.T) {
	c, _ := build(t, nil)
	if c.Name() != "dnuca-ss-performance" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Config() != DefaultConfig() {
		t.Fatal("config accessor wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic")
		}
	}()
	MustNew(Config{Policy: Incremental + 1}, cacti.Default(), memsys.NewMemory(BlockBytes))
}

func TestFalsePartialHitsHappen(t *testing.T) {
	// Two blocks whose tags share the low 7 bits collide in the
	// smart-search array: probing for the absent one wastes a search.
	c, _ := build(t, func(cfg *Config) { cfg.Policy = SSEnergy })
	setBlocks := c.idx.NumSets()
	// tag 1 and tag 129 share bits 0..6 (129 = 0b10000001).
	a1 := blockAddr(1 * setBlocks) // set 0, tag 1
	a2 := blockAddr(129 * setBlocks)
	c.Access(memsys.Req{Now: 0, Addr: a1, Write: false})
	before := c.Counters().Get("false_partial_hits")
	c.Access(memsys.Req{Now: 10000, Addr: a2, Write: false}) // miss, but partial tags match tag 1
	if c.Counters().Get("false_partial_hits") != before+1 {
		t.Fatal("partial-tag collision must register a false hit")
	}
}

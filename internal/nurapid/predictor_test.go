package nurapid

import (
	"math"
	"testing"

	"nurapid/internal/memsys"
)

// region returns a block key inside 64-block region r (regions are the
// predictor's PC surrogate: key >> predRegionShift).
func region(r int) uint64 { return uint64(r) << predRegionShift }

// TestPredictorIgnoresNonSampledSets pins the sampling contract: only
// sets at multiples of predSampleStride touch the shadow tags or train
// the table; every other set is free. The sampled rows are filled first
// and the non-sampled accesses replay their least recently used keys, so
// a stray install, recency touch or training step would all show.
func TestPredictorIgnoresNonSampledSets(t *testing.T) {
	p := newPredictor(64, 4)
	for i := 1; i <= 4; i++ {
		p.observe(0, region(i))
		p.observe(predSampleStride, region(i+4))
	}
	p.observe(0, region(1)) // row 0's LRU is now region(2)
	victims := [2]int{p.shadow.VictimWay(0), p.shadow.VictimWay(1)}
	valid := p.shadow.CountValid()
	table := append([]uint8(nil), p.table...)
	for i := 0; i < 100; i++ {
		p.observe(1, region(2))
		p.observe(predSampleStride/2, region(i+100))
		p.observe(predSampleStride+3, region(5))
		p.observe(predSampleStride+1, region(i+200))
	}
	if got := [2]int{p.shadow.VictimWay(0), p.shadow.VictimWay(1)}; got != victims {
		t.Fatalf("shadow victims %v became %v from non-sampled sets", victims, got)
	}
	if n := p.shadow.CountValid(); n != valid {
		t.Fatalf("%d shadow entries valid, want %d: non-sampled sets installed", n, valid)
	}
	for s, v := range p.table {
		if v != table[s] {
			t.Fatalf("table[%d] = %d, want %d: trained from non-sampled sets", s, v, table[s])
		}
	}
}

// TestPredictorSaturatingTraining walks one signature up to the 2-bit
// ceiling via repeated dead evictions and back down to the floor via
// re-references, checking the threshold crossing both ways.
func TestPredictorSaturatingTraining(t *testing.T) {
	p := newPredictor(predSampleStride, 2)
	dead := region(1)
	if p.predictDead(dead) {
		t.Fatal("fresh predictor must predict live")
	}
	// Each round installs dead in set 0's 2-deep shadow and then floods
	// it with two fillers, evicting dead without a re-reference.
	for round := 0; round < 6; round++ {
		p.observe(0, dead)
		p.observe(0, region(100+round))
		p.observe(0, region(200+round))
		if got := p.table[predSig(dead)]; got > predCounterMax {
			t.Fatalf("round %d: counter %d above the saturation ceiling", round, got)
		}
	}
	if got := p.table[predSig(dead)]; got != predCounterMax {
		t.Fatalf("counter = %d after 6 dead evictions, want saturated at %d", got, predCounterMax)
	}
	if !p.predictDead(dead) {
		t.Fatal("saturated counter must predict dead")
	}
	// Re-referencing a shadowed key trains live once per install; the
	// counter must cross below the threshold and floor at zero.
	for round := 0; round < 6; round++ {
		p.observe(0, dead)
		p.observe(0, dead) // first re-reference trains live
		p.observe(0, dead) // further re-references must not train again
		p.observe(0, region(300+round))
		p.observe(0, region(400+round)) // evicts dead, but it was referenced: no dead training
	}
	if got := p.table[predSig(dead)]; got != 0 {
		t.Fatalf("counter = %d after 6 live re-references, want floored at 0", got)
	}
	if p.predictDead(dead) {
		t.Fatal("floored counter must predict live")
	}
}

// TestPredictorRegionAliasing pins the PC-surrogate hash: keys in the
// same 64-block region share one signature (a streaming scan trains its
// whole footprint as one entity), while adjacent regions hash apart.
func TestPredictorRegionAliasing(t *testing.T) {
	if predSig(0) != predSig(predRegionBlocks()-1) {
		t.Fatal("keys 0 and 63 are one region but hash to different signatures")
	}
	if predSig(region(5)) != predSig(region(5)+17) {
		t.Fatal("keys of region 5 hash to different signatures")
	}
	if predSig(region(0)) == predSig(region(1)) {
		t.Fatal("adjacent regions 0 and 1 alias; the hash is not spreading")
	}
	// Training any key of a region must flip the prediction for every
	// other key of that region.
	p := newPredictor(predSampleStride, 2)
	for round := 0; round < 3; round++ {
		p.observe(0, region(7))
		p.observe(0, region(500+round))
		p.observe(0, region(600+round))
	}
	if !p.predictDead(region(7) + 42) {
		t.Fatal("dead training did not generalize across the 64-block region")
	}
}

func predRegionBlocks() uint64 { return 1 << predRegionShift }

// predictiveCache builds a small 2-d-group cache under PredictiveBypass
// with tight partitions, for driving blocks into the slow d-group.
func predictiveCache(t *testing.T) (*Cache, *memsys.Memory) {
	return build(t, func(c *Config) {
		c.CapacityBytes = 2 << 20
		c.NumDGroups = 2
		c.RestrictFrames = 4
		c.Promotion = PredictiveBypass
		c.PromoteHits = 3
	})
}

// TestBypassResetsHitCounter pins the satellite-2 semantics: a bypassed
// hit RESETS the per-frame hit counter instead of letting it accumulate,
// so when the prediction later flips to live, the block must re-earn its
// promotion screen from zero — it cannot mass-promote off hits that were
// taken while bypassed.
func TestBypassResetsHitCounter(t *testing.T) {
	c, _ := predictiveCache(t)
	cfg := c.Config()
	numSets := int(cfg.CapacityBytes) / (cfg.BlockBytes * cfg.Assoc)
	// Work in a NON-sampled set so the poked prediction cannot be
	// retrained by the accesses themselves.
	const set = 1
	addr := func(tag int) uint64 { return uint64(tag*numSets+set) * 128 }
	target := addr(0)

	// Predict the target's region dead for the whole demotion phase.
	c.pred.table[predSig(target/128)] = predDeadAt

	now := int64(0)
	access := func(a uint64) memsys.AccessResult {
		r := c.Access(memsys.Req{Now: now, Addr: a, Write: false})
		now = r.DoneAt + 1
		return r
	}
	access(target)
	// Keep the target's tag MRU with bypassed hits while fresh conflict
	// misses pressure its 4-frame g0 partition; random demotion pushes
	// the target into g1 within a handful of rounds.
	tag := 1
	for c.GroupOf(target) == 0 {
		access(target)
		access(addr(tag))
		tag++
		if tag > 100 {
			t.Fatal("target never demoted; the conflict pressure is miscalibrated")
		}
	}

	// Bypassed hits in g1: each resets the screen counter, no movement.
	before := c.Counters().Get("bypasses")
	for i := 0; i < 5; i++ {
		if r := access(target); !r.Hit || r.Group != 1 {
			t.Fatalf("bypassed hit %d: hit=%v group=%d, want a g1 hit", i, r.Hit, r.Group)
		}
	}
	if got := c.Counters().Get("bypasses") - before; got < 5 {
		t.Fatalf("bypasses grew by %d, want >= 5", got)
	}
	if g := c.GroupOf(target); g != 1 {
		t.Fatalf("bypassed block moved to d-group %d", g)
	}

	// Prediction flips to live: the first hit must NOT promote (the
	// counter restarted at zero), the third must (trigger = 3).
	c.pred.table[predSig(target/128)] = 0
	access(target)
	if g := c.GroupOf(target); g != 1 {
		t.Fatalf("block promoted on the first post-flip hit (d-group %d): bypassed hits leaked into the screen counter", g)
	}
	access(target)
	access(target)
	if g := c.GroupOf(target); g != 0 {
		t.Fatalf("block in d-group %d after re-earning the trigger, want promotion to 0", g)
	}
}

// TestMemoizationEnergyOnly pins the forward-pointer memoization
// contract: repeat accesses to a set's most recent block count as
// memo_hits and credit the tag-probe energy back, with bit-identical
// timing and outcomes versus the unmemoized cache.
func TestMemoizationEnergyOnly(t *testing.T) {
	plain, _ := build(t, nil)
	memo, _ := build(t, func(c *Config) { c.Memoize = true })

	const repeats = 10
	now := int64(0)
	var nowM int64
	for i := 0; i <= repeats; i++ {
		rp := plain.Access(memsys.Req{Now: now, Addr: blockAddr(1), Write: false})
		rm := memo.Access(memsys.Req{Now: nowM, Addr: blockAddr(1), Write: false})
		if rp != rm {
			t.Fatalf("access %d: memoized result %+v differs from plain %+v", i, rm, rp)
		}
		now, nowM = rp.DoneAt+1, rm.DoneAt+1
	}

	if got := memo.Counters().Get("memo_hits"); got != repeats {
		t.Fatalf("memo_hits = %d, want %d (every hit repeats the set's last tag)", got, repeats)
	}
	if got := plain.Counters().Get("memo_hits"); got != 0 {
		t.Fatalf("unmemoized cache counted %d memo_hits", got)
	}
	saved := plain.EnergyNJ() - memo.EnergyNJ()
	want := float64(repeats) * testModel().TagProbeNJ
	if math.Abs(saved-want) > 1e-9 {
		t.Fatalf("memoization saved %.4f nJ, want %.4f (%d probes at %.2f nJ)",
			saved, want, repeats, testModel().TagProbeNJ)
	}
	// The snapshot surfaces the credit (and statsreg requires the field).
	found := false
	for _, kv := range memo.Snapshot() {
		if kv.Name == "memo_saved_nj" {
			found = true
			if math.Abs(kv.Value-want) > 1e-9 {
				t.Fatalf("memo_saved_nj = %.4f, want %.4f", kv.Value, want)
			}
		}
	}
	if !found {
		t.Fatal("memoized snapshot missing memo_saved_nj")
	}
	for _, kv := range plain.Snapshot() {
		if kv.Name == "memo_saved_nj" {
			t.Fatal("unmemoized snapshot must not emit memo_saved_nj")
		}
	}
}

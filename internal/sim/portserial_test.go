package sim

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
)

// portSerialConfig is the deterministic worst-case geometry from the
// nurapid package's demotion-chain test: DemotionOnly + LRU distance
// draws no random numbers, and RestrictFrames carves partitions small
// enough that one conflict miss ripples through every d-group.
func portSerialConfig() nurapid.Config {
	return nurapid.Config{
		CapacityBytes:  4 << 20,
		BlockBytes:     8192,
		Assoc:          8,
		NumDGroups:     4,
		Promotion:      nurapid.DemotionOnly,
		Distance:       nurapid.LRUDistance,
		Placement:      nurapid.DistanceAssociative,
		RestrictFrames: 16,
		Seed:           1,
		Audit:          true,
	}
}

// fillPartitionZero loads 64 distinct blocks into partition 0 (8 sets x
// 8 ways), exactly filling its 4 d-groups x 16 frames without a single
// eviction, and returns the completion time of the last fill plus the
// address helper.
func fillPartitionZero(t *testing.T, c *nurapid.Cache) (int64, func(set, tag int) uint64) {
	t.Helper()
	cfg := c.Config()
	sets := int(cfg.CapacityBytes) / cfg.BlockBytes / cfg.Assoc
	addrOf := func(set, tag int) uint64 {
		return uint64(tag*sets+set) * uint64(cfg.BlockBytes)
	}
	nParts := 8 // framesPerGroup 128 / RestrictFrames 16
	now := int64(0)
	for i := 0; i < 64; i++ {
		r := c.Access(memsys.Req{Now: now, Addr: addrOf((i%8)*nParts, i/8)})
		now = r.DoneAt + 1
	}
	if got := c.Counters().Get("evictions"); got != 0 {
		t.Fatalf("setup overflowed a set: %d evictions", got)
	}
	return now, addrOf
}

// TestAccessSerializesBehindDemotionRipple pins the paper's Sec. 2.4
// one-ported/non-banked rule on the fast path: block movement charged
// by a demotion ripple extends the single port, so an access issued
// immediately after the rippling miss starts only when the movement
// drains — its DoneAt carries the full swap backlog.
func TestAccessSerializesBehindDemotionRipple(t *testing.T) {
	cfg := portSerialConfig()
	model := cacti.Default()

	// Two identical caches, identically filled. `quiet` serves the probe
	// hit with an idle port; `rippled` serves the same hit one cycle
	// after a miss whose fill demoted a block through every faster
	// d-group (NumDGroups-1 links).
	quiet := nurapid.MustNew(cfg, model, memsys.NewMemory(cfg.BlockBytes))
	rippled := nurapid.MustNew(cfg, model, memsys.NewMemory(cfg.BlockBytes))
	endQ, addrOf := fillPartitionZero(t, quiet)
	endR, _ := fillPartitionZero(t, rippled)
	if endQ != endR {
		t.Fatalf("identical fills completed at %d vs %d", endQ, endR)
	}
	// Let the port drain completely before the probe window.
	T := endQ + 1000

	// hitAddr is the most recently filled block: resident in d-group 0
	// and most-recent in the distance-LRU order, so the ripple below
	// cannot demote it. DemotionOnly means the hit itself moves nothing.
	hitAddr := addrOf(56, 7)
	missAddr := addrOf(0, 8) // 9th tag of set 0: conflict miss

	demBefore := rippled.Counters().Get("demotions")
	rippled.Access(memsys.Req{Now: T, Addr: missAddr, Write: false})
	wantLinks := int64(cfg.NumDGroups - 1)
	if got := rippled.Counters().Get("demotions") - demBefore; got != wantLinks {
		t.Fatalf("probe miss rippled %d links, want %d", got, wantLinks)
	}

	hq := quiet.Access(memsys.Req{Now: T + 1, Addr: hitAddr, Write: false})
	hr := rippled.Access(memsys.Req{Now: T + 1, Addr: hitAddr, Write: false})
	if !hq.Hit || !hr.Hit || hq.Group != 0 || hr.Group != 0 {
		t.Fatalf("probe hits not served from d-group 0: quiet %+v rippled %+v", hq, hr)
	}

	// Quiet port: the hit starts at T+1. Rippled port: the miss started
	// at T, held the port for the 4-cycle issue interval, and each of
	// the 3 demotion links extended it by 2*movementOccupancy = 4
	// cycles; the hit therefore starts at T+16, i.e. 15 cycles later
	// than the quiet one, and finishes exactly that much later.
	const accessIssueInterval, movementOccupancy = 4, 2
	wantDelay := accessIssueInterval + wantLinks*2*movementOccupancy - 1
	if got := hr.DoneAt - hq.DoneAt; got != wantDelay {
		t.Fatalf("post-ripple hit delayed %d cycles, want %d (movement must serialize the port)",
			got, wantDelay)
	}
}

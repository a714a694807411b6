package nurapid

import (
	"fmt"
	"strings"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
)

// auditGeometry is deliberately tiny (256 frames) so that the full
// O(frames) invariant audit after every single access stays affordable
// across a ~1M-access storm.
func auditConfig() Config {
	return Config{
		CapacityBytes: 4 << 20,
		BlockBytes:    16384,
		Assoc:         8,
		NumDGroups:    4,
		Audit:         true,
		Seed:          1,
	}
}

// auditVariants is the policy matrix the storm covers: every Promotion x
// DistancePolicy combination, each under flexible, pointer-restricted,
// and set-associative placement (the restricted variant also exercises
// the promotion trigger).
func auditVariants() []Config {
	var out []Config
	for _, prom := range []Promotion{DemotionOnly, NextFastest, Fastest} {
		for _, dist := range []DistancePolicy{RandomDistance, LRUDistance} {
			base := auditConfig()
			base.Promotion = prom
			base.Distance = dist

			flexible := base

			restricted := base
			restricted.RestrictFrames = 16
			restricted.PromoteHits = 2

			setAssoc := base
			setAssoc.Placement = SetAssociative

			out = append(out, flexible, restricted, setAssoc)
		}
	}
	return out
}

// TestAuditedAccessStorm is the randomized property test behind the
// invariant auditor: ~1M mixed accesses spread across the policy matrix,
// with the full structural audit running after every access. Any
// violation panics inside Access and fails the test.
func TestAuditedAccessStorm(t *testing.T) {
	perVariant := 60_000
	if testing.Short() {
		perVariant = 6_000
	}
	variants := auditVariants()
	model := cacti.Default()
	for i, cfg := range variants {
		name := fmt.Sprintf("%s-%s-p%d-r%d", cfg.Promotion, cfg.Distance, cfg.Placement, cfg.RestrictFrames)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mem := memsys.NewMemory(cfg.BlockBytes)
			c := MustNew(cfg, model, mem)
			rng := mathx.NewRNG(uint64(0xda7a + i))

			// 3/4 of accesses hit a working set slightly larger than the
			// cache (hits, promotions, demotion ripples, evictions); the
			// rest sweep a far larger footprint (streaming misses).
			hotBlocks := int64(c.geo.NumBlocks()) * 5 / 4
			coldBlocks := int64(c.geo.NumBlocks()) * 8
			now := int64(0)
			for n := 0; n < perVariant; n++ {
				var block int64
				if rng.Intn(4) != 0 {
					block = rng.Int63n(hotBlocks)
				} else {
					block = rng.Int63n(coldBlocks)
				}
				addr := uint64(block) * uint64(cfg.BlockBytes)
				res := c.Access(memsys.Req{Now: now, Addr: addr, Write: rng.Intn(10) < 3})
				if res.DoneAt < now {
					t.Fatalf("access %d completed at %d, before issue at %d", n, res.DoneAt, now)
				}
				now = res.DoneAt + 1
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("final invariant check: %v", err)
			}
			if got := c.Counters().Get("accesses"); got != int64(perVariant) {
				t.Fatalf("accesses counter = %d, want %d", got, perVariant)
			}
			if c.Counters().Get("misses") == 0 || c.Counters().Get("evictions") == 0 {
				t.Fatal("storm produced no misses or no evictions; working set too small to stress the auditor")
			}
		})
	}
}

// fillCache brings a small audited cache to a state with occupied frames
// in several d-groups.
func fillCache(t *testing.T) *Cache {
	t.Helper()
	cfg := auditConfig()
	cfg.Audit = false // corruption tests call CheckInvariants directly
	mem := memsys.NewMemory(cfg.BlockBytes)
	c := MustNew(cfg, cacti.Default(), mem)
	now := int64(0)
	for b := 0; b < 2*c.geo.NumBlocks(); b++ {
		res := c.Access(memsys.Req{Now: now, Addr: uint64(b) * uint64(cfg.BlockBytes), Write: b%3 == 0})
		now = res.DoneAt + 1
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("cache corrupt before corruption test: %v", err)
	}
	return c
}

// firstValid returns the coordinates of some valid tag entry and the
// global id of its frame.
func firstValid(t *testing.T, c *Cache) (set, way int, gid int32) {
	t.Helper()
	for set := 0; set < c.geo.NumSets(); set++ {
		for way := 0; way < c.geo.Assoc; way++ {
			if l := c.tags.Line(set, way); l.Valid {
				return set, way, c.decodeGid(l.Aux)
			}
		}
	}
	t.Fatal("no valid tag entry in a filled cache")
	return 0, 0, 0
}

// TestCheckInvariantsDetectsCorruption seeds one violation of each
// invariant class and asserts the auditor reports it; without these the
// property test could pass vacuously.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, c *Cache)
		want    string
	}{
		{"dangling-forward-pointer", func(t *testing.T, c *Cache) {
			set, way, _ := firstValid(t, c)
			c.tags.Line(set, way).Aux = int32(c.store.numFrames()) + 7
		}, "out of range"},
		{"reverse-pointer-mismatch", func(t *testing.T, c *Cache) {
			_, _, gid := firstValid(t, c)
			c.store.frames[gid].set ^= 1
		}, "reverse pointer"},
		{"double-mapped-frame", func(t *testing.T, c *Cache) {
			set, way, _ := firstValid(t, c)
			aux := c.tags.Line(set, way).Aux
			// Point a second valid tag entry at the same frame.
			other := (way + 1) % c.geo.Assoc
			if !c.tags.Line(set, other).Valid {
				t.Skip("neighbor way not valid")
			}
			c.tags.Line(set, other).Aux = aux
		}, "double-mapped"},
		{"occupancy-leak", func(t *testing.T, c *Cache) {
			_, _, gid := firstValid(t, c)
			s := &c.store
			s.lruUnlink(gid, s.homeOf(gid))
			s.frames[gid].valid = false // freed frame without free-list insert
		}, ""},
		{"recency-cycle", func(t *testing.T, c *Cache) {
			_, _, gid := firstValid(t, c)
			s := &c.store
			head := s.lruHead[s.homeOf(gid)]
			if s.next[head] == nilFrame {
				t.Skip("recency list too short for a cycle")
			}
			s.next[s.next[head]] = head
		}, ""},
		{"prev-pointer-asymmetry", func(t *testing.T, c *Cache) {
			_, _, gid := firstValid(t, c)
			s := &c.store
			head := s.lruHead[s.homeOf(gid)]
			if s.next[head] == nilFrame {
				t.Skip("recency list too short")
			}
			s.prev[s.next[head]] = nilFrame
		}, "prev pointer"},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			c := fillCache(t)
			tc.corrupt(t, c)
			err := c.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestAuditPanicsOnCorruption verifies the Config.Audit knob turns a
// detected violation into a prefixed panic at the offending access.
func TestAuditPanicsOnCorruption(t *testing.T) {
	cfg := auditConfig()
	mem := memsys.NewMemory(cfg.BlockBytes)
	c := MustNew(cfg, cacti.Default(), mem)
	now := int64(0)
	for b := 0; b < c.geo.NumBlocks(); b++ {
		res := c.Access(memsys.Req{Now: now, Addr: uint64(b) * uint64(cfg.BlockBytes), Write: false})
		now = res.DoneAt + 1
	}
	_, _, gid := firstValid(t, c)
	c.store.frames[gid].set ^= 1

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("audited access on corrupt cache did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "nurapid: audit:") {
			t.Fatalf("panic %v does not carry the nurapid audit prefix", r)
		}
	}()
	for b := 0; b < c.geo.NumBlocks(); b++ {
		c.Access(memsys.Req{Now: now, Addr: uint64(b) * uint64(cfg.BlockBytes), Write: false})
		now++
	}
}

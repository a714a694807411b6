package sim

import (
	"strings"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
)

// eventRecorder captures the raw event stream of one cache instance.
type eventRecorder struct {
	events []obs.Event
}

func (r *eventRecorder) Emit(e obs.Event) { r.events = append(r.events, e) }

// orderCell is one organization of the order pin's roster: the groups
// its inner cache level owns (obs.CheckOrder's inner argument) and the
// counters that must move on the pin's workload, so the paths whose
// events order matters most provably ran under the checker.
type orderCell struct {
	org   Organization
	inner []int16
	need  []string
}

// eventOrderCells is the roster the order pin runs: every policy family
// of zeroAllocOrgs, plus two 2-MB NuRAPIDs with tiny frame partitions
// (each set's 8 ways overcommit the 4 frames its partition owns per
// d-group), so demotion chains, promotions, and the predictor's
// bypasses and dead-on-arrival fills all fire.
func eventOrderCells() []orderCell {
	small := nurapid.DefaultConfig()
	small.CapacityBytes = 2 << 20
	small.NumDGroups = 2
	small.RestrictFrames = 4
	pred := small
	pred.Promotion = nurapid.PredictiveBypass
	pred.Distance = nurapid.DeadOnArrival
	pred.Memoize = true
	need := map[string][]string{
		// The L3-hit path is the only one whose inner Place directly
		// precedes the outcome.
		"base":  {"misses", "l3_hits"},
		"ideal": {"writebacks"},
	}
	var cells []orderCell
	for _, org := range zeroAllocOrgs() {
		c := orderCell{org: org, need: need[org.Key]}
		switch {
		case org.Key == "base":
			c.inner = []int16{0} // uca.Hierarchy's L2
		case strings.HasPrefix(org.Key, "dnuca-"):
			c.need = []string{"promotions"}
		}
		cells = append(cells, c)
	}
	return append(cells,
		orderCell{org: NuRAPID(small), need: []string{"evictions", "demotions", "promotions"}},
		orderCell{org: NuRAPID(pred), need: []string{"bypasses", "dead_fills"}})
}

// conflictStream builds n deterministic requests confined to four sets
// of every organization in the roster (a 1-MB stride is a multiple of
// each one's set span). Half the requests reuse a few hot tags (hits,
// promotions, L3 hits behind a thrashed L2), half sweep a wider pool
// (misses, evictions, writebacks, demotion chains).
func conflictStream(blockBytes, n int) []memsys.Req {
	rng := mathx.NewRNG(42)
	reqs := make([]memsys.Req, n)
	for i := range reqs {
		tag := rng.Intn(6)
		if rng.Bool(0.5) {
			tag = rng.Intn(40)
		}
		reqs[i] = memsys.Req{
			Addr:  uint64(tag)<<20 + uint64(rng.Intn(4)*blockBytes),
			Write: rng.Bool(0.3),
			Gap:   int64(rng.Intn(8)),
		}
	}
	return reqs
}

// TestEventOrderCanonical pins the per-access event order (obs package
// comment, checked by obs.CheckOrder) for every organization family on
// the batched replay path. Each stream must carry hits, misses and
// evictions, each cell's named counters must move, and the roster as a
// whole must emit every single-core event kind, so no part of the
// grammar goes unexercised.
func TestEventOrderCanonical(t *testing.T) {
	seen := map[obs.Kind]bool{}
	for _, c := range eventOrderCells() {
		c := c
		t.Run(c.org.Key, func(t *testing.T) {
			l2 := c.org.Factory(cacti.Default(), memsys.NewMemory(c.org.blockBytes()))
			rec := &eventRecorder{}
			l2.(obs.Probeable).SetProbe(rec)
			memsys.AccessMany(l2, 0, conflictStream(c.org.blockBytes(), 4000), nil)
			if err := obs.CheckOrder(rec.events, c.inner...); err != nil {
				t.Fatal(err)
			}
			kinds := map[obs.Kind]bool{}
			for _, e := range rec.events {
				kinds[e.Kind] = true
				seen[e.Kind] = true
			}
			if !kinds[obs.KindHit] || !kinds[obs.KindMiss] || !kinds[obs.KindEvict] {
				t.Fatalf("workload too gentle: want hits, misses, and evictions, saw %v", kinds)
			}
			for _, name := range c.need {
				if l2.Counters().Get(name) == 0 {
					t.Errorf("workload too gentle: counter %s never moved", name)
				}
			}
		})
	}
	for _, k := range []obs.Kind{obs.KindPromote, obs.KindDemote, obs.KindPlace, obs.KindSwap, obs.KindBypass} {
		if !seen[k] {
			t.Errorf("no organization emitted %v; the order of that kind went unchecked", k)
		}
	}
}

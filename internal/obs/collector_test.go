package obs

import (
	"reflect"
	"strconv"
	"testing"

	"nurapid/internal/mathx"
	"nurapid/internal/stats"
)

// mapCollector is the reference Collector: it counts every event into
// a stats.Counters map, name by name.
type mapCollector struct {
	*Collector // the histograms and per-group hits
	ctrs       stats.Counters
}

func (m *mapCollector) Emit(e Event) {
	m.Collector.Emit(e)
	switch e.Kind {
	case KindAccess:
		m.ctrs.Inc("accesses")
		if e.Write {
			m.ctrs.Inc("writes")
		}
	case KindHit:
		m.ctrs.Inc("hits")
	case KindMiss:
		m.ctrs.Inc("misses")
	case KindPlace:
		m.ctrs.Inc("placements")
	case KindPromote:
		m.ctrs.Inc("promotions")
	case KindDemote:
		m.ctrs.Inc("demotions")
	case KindEvict:
		m.ctrs.Inc("evictions")
		if e.Dirty {
			m.ctrs.Inc("dirty_evictions")
		}
	case KindSwap:
		m.ctrs.Inc("swap_backlogs")
		m.ctrs.Add("swap_backlog_cycles", e.Lat)
	case KindEnqueue:
		m.ctrs.Inc("enqueues")
	case KindIssue:
		m.ctrs.Add("queue_wait_cycles", e.Lat)
	case KindInval:
		m.ctrs.Inc("l1d_invals")
	}
}

// Snapshot lists the map's counters, both histograms and the
// per-group hits, in the Collector's order.
func (m *mapCollector) Snapshot() []stats.KV {
	out := m.ctrs.Snapshot()
	out = append(out, m.chain.Snapshot()...)
	out = append(out, m.hitLat.Snapshot()...)
	for g, n := range m.groups {
		out = append(out, stats.KV{Name: "dgroup_" + strconv.Itoa(g) + "_hits", Value: float64(n)})
	}
	return out
}

// randomEvent draws an event of any kind, with zero latencies common, so
// the cycle sums are touched by events that add nothing.
func randomEvent(rng *mathx.RNG) Event {
	lat := int64(0)
	if rng.Bool(0.6) {
		lat = rng.Int63n(300)
	}
	return Event{
		Kind:  Kind(rng.Intn(int(numKinds))),
		Now:   rng.Int63n(1 << 20),
		Addr:  rng.Uint64() &^ 127,
		Core:  int16(rng.Intn(4)),
		Group: int16(rng.Intn(4)),
		From:  int16(rng.Intn(4)),
		Depth: uint8(rng.Intn(4)),
		Write: rng.Bool(0.3),
		Dirty: rng.Bool(0.4),
		Lat:   lat,
	}
}

// checkParity requires c and ref to report the same counter names and
// the same snapshot.
func checkParity(t *testing.T, where string, c *Collector, ref *mapCollector) {
	t.Helper()
	if got, want := c.Counters().Names(), ref.ctrs.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counter names %v, map reference %v", where, got, want)
	}
	if got, want := c.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: snapshot %v, map reference %v", where, got, want)
	}
}

// TestCollectorMatchesMapCounters holds the field-counting Collector to
// a map-counting reference on seeded random event streams of every
// kind: the same counter names and the same snapshot after every event
// of the first hundred and at the end of each stream.
func TestCollectorMatchesMapCounters(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := mathx.NewRNG(seed)
		c, ref := NewCollector(), &mapCollector{Collector: NewCollector()}
		checkParity(t, "empty", c, ref)
		n := 1 + rng.Intn(5000)
		for i := 0; i < n; i++ {
			e := randomEvent(rng)
			c.Emit(e)
			ref.Emit(e)
			if i < 100 {
				checkParity(t, "prefix", c, ref)
			}
		}
		checkParity(t, "end", c, ref)
	}
}

// TestCollectorZeroLatencyNamesCounted pins the presence of the cycle
// sums touched only by zero-latency events: a KindIssue that waited 0
// cycles names queue_wait_cycles, and a KindSwap with no backlog names
// swap_backlog_cycles, both at 0.
func TestCollectorZeroLatencyNamesCounted(t *testing.T) {
	c, ref := NewCollector(), &mapCollector{Collector: NewCollector()}
	for _, e := range []Event{Issue(10, 1, 0, 0), SwapBacklog(12, 0)} {
		c.Emit(e)
		ref.Emit(e)
	}
	checkParity(t, "zero latency", c, ref)
	want := []string{"queue_wait_cycles", "swap_backlog_cycles", "swap_backlogs"}
	if got := c.Counters().Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counter names %v, want %v", got, want)
	}
}

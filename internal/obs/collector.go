package obs

import (
	"strconv"

	"nurapid/internal/stats"
)

// chainDepthBuckets bounds the chain-depth histogram: NuRAPID chains
// are at most nGroups-1 links (conservation, paper Sec. 2.2) and the
// repository's largest configuration has 8 d-groups, so unit buckets
// 0..8 cover every legal chain and the overflow bucket would expose a
// conservation bug.
const chainDepthBuckets = 9

// hit-latency histogram geometry: 8-cycle buckets to 256 cycles span
// the fastest d-group (14 cycles) through a contended slowest group;
// memory-bound latencies land in the overflow bucket.
const (
	hitLatBuckets = 32
	hitLatWidth   = 8
)

// Collector is an in-memory aggregating probe: event counters mirroring
// the cache models' own (accesses, hits, misses, placements,
// promotions, demotions, evictions), a demotion-chain depth histogram,
// a hit-latency histogram, and per-d-group hit counts. One Collector
// observes one run; Merge is not provided — aggregate trace files with
// cmd/nurapidtrace instead.
type Collector struct {
	chain  *stats.Histogram
	hitLat *stats.Histogram
	ctrs   stats.Counters
	groups []int64 // hits per serving d-group
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		chain:  stats.NewHistogram("chain_depth", chainDepthBuckets, 1),
		hitLat: stats.NewHistogram("hit_latency", hitLatBuckets, hitLatWidth),
	}
}

// Emit implements Probe.
func (c *Collector) Emit(e Event) {
	switch e.Kind {
	case KindAccess:
		c.ctrs.Inc("accesses")
		if e.Write {
			c.ctrs.Inc("writes")
		}
	case KindHit:
		c.ctrs.Inc("hits")
		c.hitLat.Add(e.Lat)
		g := int(e.Group)
		for len(c.groups) <= g {
			c.groups = append(c.groups, 0)
		}
		c.groups[g]++
	case KindMiss:
		c.ctrs.Inc("misses")
	case KindPlace:
		c.ctrs.Inc("placements")
		c.chain.Add(int64(e.Depth))
	case KindPromote:
		c.ctrs.Inc("promotions")
	case KindDemote:
		c.ctrs.Inc("demotions")
	case KindEvict:
		c.ctrs.Inc("evictions")
		if e.Dirty {
			c.ctrs.Inc("dirty_evictions")
		}
	case KindSwap:
		c.ctrs.Inc("swap_backlogs")
		c.ctrs.Add("swap_backlog_cycles", e.Lat)
	case KindEnqueue:
		c.ctrs.Inc("enqueues")
	case KindIssue:
		c.ctrs.Add("queue_wait_cycles", e.Lat)
	case KindInval:
		c.ctrs.Inc("l1d_invals")
	}
}

// Counters returns the event counters.
func (c *Collector) Counters() *stats.Counters { return &c.ctrs }

// ChainDepth returns the demotion-chain depth histogram: one sample per
// placement, valued at the number of demotion links the chain rippled
// through before a free frame absorbed it.
func (c *Collector) ChainDepth() *stats.Histogram { return c.chain }

// HitLatency returns the observed hit-latency histogram (port and bank
// queueing included).
func (c *Collector) HitLatency() *stats.Histogram { return c.hitLat }

// GroupHits returns the number of hits served per d-group, indexed by
// group; the slice covers the highest group seen.
func (c *Collector) GroupHits() []int64 {
	out := make([]int64, len(c.groups))
	copy(out, c.groups)
	return out
}

// Snapshot emits the collector's counters, both histograms, and the
// per-group hit counts (statsreg convention: every counter field must
// appear here).
func (c *Collector) Snapshot() []stats.KV {
	out := c.ctrs.Snapshot()
	out = append(out, c.chain.Snapshot()...)
	out = append(out, c.hitLat.Snapshot()...)
	for g, n := range c.groups {
		out = append(out, stats.KV{
			Name:  "dgroup_" + strconv.Itoa(g) + "_hits",
			Value: float64(n),
		})
	}
	return out
}

package obs

import "nurapid/internal/stats"

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
	hot    collectorHot
	groups []int64 // hits per serving d-group
}

// collectorHot holds the event counts as plain fields; Counters()
// materializes them with the presence semantics of stats.Counters.Inc
// and Add: a count is named once an event has touched it, so the cycle
// sums are named from their first event even when they sum to 0.
type collectorHot struct {
	accesses, writes, hits, misses               int64
	placements, promotions, demotions            int64
	evictions, dirtyEvictions                    int64
	swapBacklogs, swapBacklogCycles              int64
	enqueues, issues, queueWaitCycles, l1dInvals int64
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
	h := &c.hot
	switch e.Kind {
	case KindAccess:
		h.accesses++
		if e.Write {
			h.writes++
		}
	case KindHit:
		h.hits++
		c.hitLat.Add(e.Lat)
		g := int(e.Group)
		for len(c.groups) <= g {
			c.groups = append(c.groups, 0)
		}
		c.groups[g]++
	case KindMiss:
		h.misses++
	case KindPlace:
		h.placements++
		c.chain.Add(int64(e.Depth))
	case KindPromote:
		h.promotions++
	case KindDemote:
		h.demotions++
	case KindEvict:
		h.evictions++
		if e.Dirty {
			h.dirtyEvictions++
		}
	case KindSwap:
		h.swapBacklogs++
		h.swapBacklogCycles += e.Lat
	case KindEnqueue:
		h.enqueues++
	case KindIssue:
		h.issues++
		h.queueWaitCycles += e.Lat
	case KindInval:
		h.l1dInvals++
	}
}

// Counters returns the event counters.
func (c *Collector) Counters() *stats.Counters {
	h := &c.hot
	for _, ctr := range []struct {
		name    string
		v, seen int64
	}{
		{"accesses", h.accesses, h.accesses},
		{"writes", h.writes, h.writes},
		{"hits", h.hits, h.hits},
		{"misses", h.misses, h.misses},
		{"placements", h.placements, h.placements},
		{"promotions", h.promotions, h.promotions},
		{"demotions", h.demotions, h.demotions},
		{"evictions", h.evictions, h.evictions},
		{"dirty_evictions", h.dirtyEvictions, h.dirtyEvictions},
		{"swap_backlogs", h.swapBacklogs, h.swapBacklogs},
		{"swap_backlog_cycles", h.swapBacklogCycles, h.swapBacklogs},
		{"enqueues", h.enqueues, h.enqueues},
		{"queue_wait_cycles", h.queueWaitCycles, h.issues},
		{"l1d_invals", h.l1dInvals, h.l1dInvals},
	} {
		if ctr.seen != 0 {
			c.ctrs.Set(ctr.name, ctr.v)
		}
	}
	return &c.ctrs
}

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
	ctrs := c.Counters().Snapshot()
	out := make([]stats.KV, 0, len(ctrs)+c.chain.SnapshotLen()+c.hitLat.SnapshotLen()+len(c.groups))
	out = append(out, ctrs...)
	out = c.chain.AppendSnapshot(out)
	out = c.hitLat.AppendSnapshot(out)
	for g, n := range c.groups {
		out = append(out, stats.KV{
			Name:  stats.Name("dgroup_", stats.Itoa(g), "_hits"),
			Value: float64(n),
		})
	}
	return out
}

// Package cmp models a chip-multiprocessor front end over one shared
// lower-level organization: N out-of-order cores with private L1s
// (internal/cpu) drive a single NuRAPID, D-NUCA, or conventional
// hierarchy L2 through a deterministic bank-queue model.
//
// The pieces:
//
//   - Queue wraps the shared organization behind per-bank occupancy
//     scoreboards (memsys.Port), so requests from different cores to
//     the same bank serialize deterministically and the wait shows up
//     as attributable contention stalls.
//   - System builds the cores and runs them through cpu.Lockstep, which
//     times each core one instruction at a time and runs the cores'
//     shared-level events in the order of a cycle-by-cycle loop with
//     rotating round-robin arbitration. It applies coherence-lite: a
//     write reaching the shared L2 shoots the block down from every
//     other core's private L1D (no writeback — the writer's copy
//     supersedes). The cores run recorded fronts (RecordFronts): each
//     instruction stream with its L1I outcomes resolved and its loads
//     and stores left to the core's live L1D. Under Shared sharing
//     every core runs the one front of the one stream.
//   - Result aggregates per-core IPC, Jain's fairness index, and
//     d-group contention stalls into one statsreg-compliant snapshot.
//
// Everything is deterministic: same seeds and configuration give
// byte-identical event streams and figures regardless of host.
package cmp

import (
	"fmt"
	"math/bits"

	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// QueueConfig parameterizes the shared-L2 bank-queue model.
type QueueConfig struct {
	// Banks is the number of independently scheduled queues; requests
	// are address-interleaved across them at BlockBytes granularity.
	Banks int
	// BlockBytes is the interleave granularity (power of two). It
	// matches the organization's block size so one block maps to one
	// bank.
	BlockBytes int
	// Occupancy is how many cycles one request occupies its bank — the
	// issue interval of the shared organization's port, not the full
	// access latency (banks are pipelined like the underlying arrays).
	Occupancy int64
	// Cores pre-sizes per-core attribution; requests must carry
	// Core in [0, Cores).
	Cores int
}

// DefaultQueueConfig mirrors the paper's port model: 8 banks at the
// organizations' 128-B block interleave, occupied for the 4-cycle issue
// interval the single-core organizations already charge.
func DefaultQueueConfig(cores int) QueueConfig {
	return QueueConfig{Banks: 8, BlockBytes: 128, Occupancy: 4, Cores: cores}
}

// validate reports the first configuration error.
func (c QueueConfig) validate() error {
	if c.Banks < 1 {
		return fmt.Errorf("cmp: Banks must be >= 1, got %d", c.Banks)
	}
	if c.BlockBytes < 8 || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cmp: BlockBytes must be a power of two >= 8, got %d", c.BlockBytes)
	}
	if c.Occupancy < 1 {
		return fmt.Errorf("cmp: Occupancy must be >= 1, got %d", c.Occupancy)
	}
	if c.Cores < 1 {
		return fmt.Errorf("cmp: Cores must be >= 1, got %d", c.Cores)
	}
	return nil
}

// CoreStats is one core's view of the shared queue. It has no Snapshot
// method of its own; Result folds these into the system snapshot.
type CoreStats struct {
	// Accesses counts requests the core issued to the shared level.
	Accesses int64
	// Writes counts the write subset.
	Writes int64
	// StallCycles is time spent waiting for a busy bank before issue —
	// the contention the queue model adds over a private L2.
	StallCycles int64
	// LatencyCycles sums end-to-end latency (queue wait + access), for
	// average-latency figures.
	LatencyCycles int64
}

// Queue is a memsys.LowerLevel that serializes concurrent cores onto a
// shared organization through per-bank occupancy scoreboards. It is the
// only path cores use to reach the shared level, so its counters see
// every request.
//
// Queue itself implements the LowerLevel contract (forwarding Name,
// Distribution, EnergyNJ, and Counters to the wrapped organization), so
// the differential harness can compare a queued fast model against a
// queued reference model with the same glue.
type Queue struct {
	l2   memsys.LowerLevel
	name string

	banks   []memsys.Port
	perCore []CoreStats

	// groupStalls attributes bank-wait cycles to the d-group that
	// ultimately served the access, one entry per hit category of the
	// organization's Distribution; missStalls takes the miss share.
	groupStalls []int64
	missStalls  int64

	blockShift uint
	occupancy  int64

	// probe observes queue-side events (KindEnqueue/KindIssue); nil in
	// unprobed runs keeps the zero-overhead fast path.
	probe obs.Probe
}

// NewQueue wraps l2 behind cfg's bank queues.
func NewQueue(l2 memsys.LowerLevel, cfg QueueConfig) (*Queue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Queue{
		l2:          l2,
		name:        "cmp(" + l2.Name() + ")",
		banks:       make([]memsys.Port, cfg.Banks),
		perCore:     make([]CoreStats, cfg.Cores),
		groupStalls: make([]int64, l2.Distribution().NumCategories()),
		blockShift:  uint(bits.TrailingZeros(uint(cfg.BlockBytes))),
		occupancy:   cfg.Occupancy,
	}, nil
}

// Name implements memsys.LowerLevel.
func (q *Queue) Name() string { return q.name }

// Access implements memsys.LowerLevel: the request waits for its bank's
// scoreboard, then issues to the shared organization at the granted
// cycle. The bank wait is charged to the requesting core and attributed
// to the d-group that served the access (or to the miss bucket).
//
//nurapid:hotpath
func (q *Queue) Access(req memsys.Req) memsys.AccessResult {
	bank := int((req.Addr >> q.blockShift) % uint64(len(q.banks)))
	if q.probe != nil {
		// Instantaneous depth at arrival: how many whole occupancy
		// intervals of backlog sit ahead of this request.
		depth := int64(0)
		if backlog := q.banks[bank].FreeAt() - req.Now; backlog > 0 {
			depth = (backlog + q.occupancy - 1) / q.occupancy
		}
		if depth > 255 {
			depth = 255
		}
		q.probe.Emit(obs.Enqueue(req.Now, req.Addr, bank, req.Core, req.Write, int(depth)))
	}
	start := q.banks[bank].Acquire(req.Now, q.occupancy)
	stall := start - req.Now
	if q.probe != nil {
		q.probe.Emit(obs.Issue(start, bank, req.Core, stall))
	}

	cs := &q.perCore[req.Core]
	cs.Accesses++
	if req.Write {
		cs.Writes++
	}
	cs.StallCycles += stall

	issued := req
	issued.Now = start
	r := q.l2.Access(issued)
	cs.LatencyCycles += r.DoneAt - req.Now

	if r.Group >= 0 && r.Group < len(q.groupStalls) {
		q.groupStalls[r.Group] += stall
	} else {
		q.missStalls += stall
	}
	return r
}

// Distribution implements memsys.LowerLevel.
func (q *Queue) Distribution() *stats.Distribution { return q.l2.Distribution() }

// EnergyNJ implements memsys.LowerLevel.
func (q *Queue) EnergyNJ() float64 { return q.l2.EnergyNJ() }

// Counters implements memsys.LowerLevel.
func (q *Queue) Counters() *stats.Counters { return q.l2.Counters() }

// SetProbe implements obs.Probeable: the probe sees this queue's
// KindEnqueue/KindIssue events interleaved in canonical order with the
// wrapped organization's own stream (the probe is forwarded to it when
// it accepts probes). Call before the first access; nil restores the
// fast path on both levels.
func (q *Queue) SetProbe(p obs.Probe) {
	q.probe = p
	if pb, ok := q.l2.(obs.Probeable); ok {
		pb.SetProbe(p)
	}
}

// LatencyProfile implements obs.LatencyProfiler by delegating to the
// wrapped organization; the zero profile means it has none.
func (q *Queue) LatencyProfile() obs.LatencyProfile {
	if lp, ok := q.l2.(obs.LatencyProfiler); ok {
		return lp.LatencyProfile()
	}
	return obs.LatencyProfile{}
}

// PerCore returns the per-core queue statistics, indexed by core id.
func (q *Queue) PerCore() []CoreStats { return q.perCore }

// GroupStalls returns bank-wait cycles attributed per serving d-group
// (index = group) plus the miss share, trimmed to the groups that were
// actually touched.
func (q *Queue) GroupStalls() (perGroup []int64, miss int64) {
	hi := 0
	for g, s := range q.groupStalls {
		if s != 0 {
			hi = g + 1
		}
	}
	return append([]int64(nil), q.groupStalls[:hi]...), q.missStalls
}

// Snapshot emits the queue's contention counters (statsreg convention:
// every counter field must appear here).
func (q *Queue) Snapshot() []stats.KV {
	var conflicts, wait, busy int64
	for i := range q.banks {
		conflicts += q.banks[i].Conflicts
		wait += q.banks[i].WaitCycles
		busy += q.banks[i].BusyCycles
	}
	perGroup, _ := q.GroupStalls()
	out := make([]stats.KV, 0, 6+len(perGroup))
	out = append(out,
		stats.KV{Name: "queue_banks", Value: float64(len(q.banks))},
		stats.KV{Name: "queue_occupancy_cycles", Value: float64(q.occupancy)},
		stats.KV{Name: "queue_conflicts", Value: float64(conflicts)},
		stats.KV{Name: "queue_wait_cycles", Value: float64(wait)},
		stats.KV{Name: "queue_busy_cycles", Value: float64(busy)},
		stats.KV{Name: "queue_miss_stall_cycles", Value: float64(q.missStalls)},
	)
	for g, s := range perGroup {
		out = append(out, stats.KV{
			Name:  stats.Name("queue_dgroup_", stats.Itoa(g), "_stall_cycles"),
			Value: float64(s),
		})
	}
	return out
}

var _ memsys.LowerLevel = (*Queue)(nil)

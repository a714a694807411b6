package cmp

import (
	"nurapid/internal/cpu"
	"nurapid/internal/stats"
)

// Result summarizes one CMP run: per-core outcomes plus the aggregate
// throughput, fairness, and contention figures the experiments report.
type Result struct {
	// Cores holds each core's own simulation result, indexed by id.
	Cores []cpu.Result
	// PerCore holds each core's shared-queue statistics, indexed by id.
	PerCore []CoreStats
	// GroupStallCycles attributes bank-wait cycles to the d-group that
	// served the stalled access (index = group, latency order).
	GroupStallCycles []int64

	// MissStallCycles is the bank-wait share attributed to misses.
	MissStallCycles int64
	// Invalidations counts L1D lines shot down by other cores' writes.
	Invalidations int64
	// Cycles is the slowest core's cycle count — the run's makespan.
	Cycles int64
	// Instructions is the total retired across all cores.
	Instructions int64
	// AggregateIPC is total instructions over the makespan — the
	// system's throughput in instructions per cycle.
	AggregateIPC float64
	// Fairness is Jain's index over per-core IPCs: 1.0 when every core
	// progresses equally, approaching 1/n when one core starves the
	// rest.
	Fairness float64
}

// Result assembles the summary for the run so far. It is cheap and
// side-effect free, so tests may call it mid-run.
func (s *System) Result() Result {
	r := Result{
		Cores:         make([]cpu.Result, len(s.cores)),
		PerCore:       append([]CoreStats(nil), s.queue.PerCore()...),
		Invalidations: s.invalidations,
	}
	r.GroupStallCycles, r.MissStallCycles = s.queue.GroupStalls()
	ipcs := make([]float64, len(s.cores))
	for i, c := range s.cores {
		cr := c.Result()
		r.Cores[i] = cr
		r.Instructions += cr.Instructions
		if cr.Cycles > r.Cycles {
			r.Cycles = cr.Cycles
		}
		ipcs[i] = cr.IPC
	}
	if r.Cycles > 0 {
		r.AggregateIPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.Fairness = stats.JainIndex(ipcs)
	return r
}

// Snapshot emits the aggregate figures plus each core's nested summary
// (statsreg convention: every counter field must appear here).
func (r Result) Snapshot() []stats.KV {
	cores := make([][]stats.KV, len(r.Cores))
	n := 6 + len(r.GroupStallCycles)
	for i := range r.Cores {
		cores[i] = r.Cores[i].Snapshot()
		n += len(cores[i]) + 4
	}
	out := make([]stats.KV, 0, n)
	out = append(out,
		stats.KV{Name: "cycles", Value: float64(r.Cycles)},
		stats.KV{Name: "instructions", Value: float64(r.Instructions)},
		stats.KV{Name: "aggregate_ipc", Value: r.AggregateIPC},
		stats.KV{Name: "fairness", Value: r.Fairness},
		stats.KV{Name: "invalidations", Value: float64(r.Invalidations)},
		stats.KV{Name: "miss_stall_cycles", Value: float64(r.MissStallCycles)},
	)
	for g, s := range r.GroupStallCycles {
		out = append(out, stats.KV{
			Name:  stats.Name("dgroup_", stats.Itoa(g), "_stall_cycles"),
			Value: float64(s),
		})
	}
	for i, core := range cores {
		id := stats.Itoa(i)
		for _, kv := range core {
			out = append(out, stats.KV{Name: stats.Name("core", id, "_", kv.Name), Value: kv.Value})
		}
		out = append(out,
			stats.KV{Name: stats.Name("core", id, "_queue_accesses"), Value: float64(r.PerCore[i].Accesses)},
			stats.KV{Name: stats.Name("core", id, "_queue_writes"), Value: float64(r.PerCore[i].Writes)},
			stats.KV{Name: stats.Name("core", id, "_queue_stall_cycles"), Value: float64(r.PerCore[i].StallCycles)},
			stats.KV{Name: stats.Name("core", id, "_queue_latency_cycles"), Value: float64(r.PerCore[i].LatencyCycles)},
		)
	}
	return out
}

// Trace replay: the batched AccessMany path from the L2's point of
// view. The full-system runner drives organizations access-by-access
// through the out-of-order core (each DoneAt feeds back into dispatch),
// but measurement campaigns that only care about the L2 itself — the
// bench-core suite, the determinism guard, quick what-if sweeps —
// replay a pre-extracted request trace straight through
// memsys.AccessMany, one Access per request with the next issue cycle
// taken from the previous completion, and no per-access overhead from
// the core model.
package sim

import (
	"fmt"
	"hash/fnv"
	"io"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// ExtractTrace synthesizes the L2-visible request stream of an
// application model: every Load/Store becomes one request (block
// granularity is left to the organization), and the Gap of a request
// counts the non-memory instructions issued since the previous memory
// operation — a cheap stand-in for core think time. Deterministic for
// a given (app, seed, n).
func ExtractTrace(app workload.App, seed uint64, n int) []memsys.Req {
	return ExtractTraceSource(workload.MustNewGenerator(app, seed), n).Reqs
}

// Trace bundles an extracted request stream with the accounting the raw
// request slice cannot carry: the think time trailing the last memory
// operation (which a Gap field on the next request would normally hold,
// but there is no next request) and the total instructions the stream
// covers. Replaying Reqs alone silently drops TailGap; ReplayTrace
// accounts it.
type Trace struct {
	Reqs []memsys.Req
	// TailGap is the number of non-memory instructions issued after the
	// last Load/Store before the source ended. Zero for request-budget
	// extraction from an inexhaustible generator (extraction stops at a
	// memory operation), nonzero when a bounded source ends mid-gap.
	TailGap int64
	// Instructions is the total instruction count consumed producing
	// the trace: len(Reqs) memory operations plus every inter-request
	// gap plus TailGap.
	Instructions int64
}

// ExtractTraceSource drains up to n requests from src. The request
// bytes are identical to ExtractTrace over the same stream; the Trace
// additionally carries the trailing think time of a source that ends
// after its last memory operation, so bounded sources (trace files,
// workload.Limit) lose no instruction accounting.
func ExtractTraceSource(src workload.Source, n int) Trace {
	return extractTrace(Trace{}, src, n)
}

// extractTrace is ExtractTraceSource into reuse's request buffer, which
// it overwrites (ReplayAll recycles traces through it).
func extractTrace(reuse Trace, src workload.Source, n int) Trace {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative trace budget %d", n))
	}
	t := Trace{Reqs: reuse.Reqs[:0]}
	if cap(t.Reqs) < n {
		t.Reqs = make([]memsys.Req, 0, n)
	}
	for len(t.Reqs) < n {
		in, ok := src.Next()
		if !ok {
			break
		}
		t.Instructions++
		switch in.Kind {
		case workload.Load, workload.Store:
			t.Reqs = append(t.Reqs, memsys.Req{
				Addr:  in.Addr,
				Write: in.Kind == workload.Store,
				Gap:   t.TailGap,
			})
			t.TailGap = 0
		default:
			t.TailGap++
		}
	}
	return t
}

// ReplayResult captures the organization-level outcome of one batched
// trace replay.
type ReplayResult struct {
	Org      string
	Requests int64
	// FinalClock is the completion cycle of the last request — the
	// replay's end-to-end latency under the organization's port and
	// movement serialization rules.
	FinalClock int64
	Hits       int64
	L2EnergyNJ float64
	MemReads   int64
	MemWrites  int64

	Ctrs stats.Counters
}

// Snapshot emits the replay's numeric fields (statsreg convention).
func (r *ReplayResult) Snapshot() []stats.KV {
	return []stats.KV{
		{Name: "requests", Value: float64(r.Requests)},
		{Name: "final_clock", Value: float64(r.FinalClock)},
		{Name: "hits", Value: float64(r.Hits)},
		{Name: "l2_energy_nj", Value: r.L2EnergyNJ},
		{Name: "mem_reads", Value: float64(r.MemReads)},
		{Name: "mem_writes", Value: float64(r.MemWrites)},
	}
}

// ReplayTrace replays a full Trace through a fresh instance of org:
// the request stream runs on the batched path (one
// memsys.AccessMany call), and the trace's trailing think time is added
// to FinalClock, so a bounded source's tail gap is not silently dropped
// from the replay's end-to-end latency. Deterministic for a given
// (org, trace, model); ReplayAll runs the same job on a worker pool.
//
//nurapid:coldpath
func ReplayTrace(model *cacti.Model, org Organization, t Trace) *ReplayResult {
	mem := memsys.NewMemory(org.blockBytes())
	l2 := org.Factory(model, mem)
	now := memsys.AccessMany(l2, 0, t.Reqs, nil)
	res := &ReplayResult{
		Org:        org.Key,
		Requests:   int64(len(t.Reqs)),
		FinalClock: now + t.TailGap,
		Hits:       l2.Distribution().Total() - l2.Distribution().MissCount(),
		L2EnergyNJ: l2.EnergyNJ(),
		MemReads:   mem.Accesses - mem.Writes,
		MemWrites:  mem.Writes,
	}
	for _, name := range l2.Counters().Names() {
		res.Ctrs.Add(name, l2.Counters().Get(name))
	}
	release(l2)
	return res
}

// Fingerprint folds the replay's counters and snapshot into one FNV-64
// value. Two runs with the same configuration, trace, and model hash
// identically; any divergence — a counter, the final clock, an energy
// bit — changes the fingerprint. The determinism guard compares this
// against a golden value.
func (r *ReplayResult) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "org=%s\n", r.Org)
	for _, kv := range r.Snapshot() {
		fmt.Fprintf(h, "%s=%v\n", kv.Name, kv.Value)
	}
	for _, name := range r.Ctrs.Names() {
		fmt.Fprintf(h, "ctr.%s=%d\n", name, r.Ctrs.Get(name))
	}
	return h.Sum64()
}

// WriteText renders the replay result as an aligned two-column report.
func (r *ReplayResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "replay %s: %d requests\n", r.Org, r.Requests); err != nil {
		return err
	}
	for _, kv := range r.Snapshot() {
		if kv.Name == "requests" {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-24s %v\n", kv.Name, kv.Value); err != nil {
			return err
		}
	}
	for _, name := range r.Ctrs.Names() {
		if _, err := fmt.Fprintf(w, "  %-24s %d\n", "ctr."+name, r.Ctrs.Get(name)); err != nil {
			return err
		}
	}
	return nil
}

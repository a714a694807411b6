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
	return ExtractTraceApp(app, seed, n).Reqs
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

// ExtractTraceApp extracts app's request stream like ExtractTrace but
// returns the full Trace, including the tail-gap and instruction
// accounting.
func ExtractTraceApp(app workload.App, seed uint64, n int) Trace {
	return ExtractTraceSource(workload.MustNewGenerator(app, seed), n)
}

// ExtractTraceSource drains up to n requests from src. The request
// bytes are identical to ExtractTrace over the same stream; the Trace
// additionally carries the trailing think time of a source that ends
// after its last memory operation, so bounded sources (trace files,
// workload.Limit) lose no instruction accounting.
func ExtractTraceSource(src workload.Source, n int) Trace {
	s := NewSourceStream(src, n)
	t := Trace{Reqs: s.Next(n)}
	if t.Reqs == nil {
		t.Reqs = []memsys.Req{}
	}
	t.TailGap = s.TailGap()
	t.Instructions = s.Instructions()
	return t
}

// TraceStream incrementally extracts an L2 request stream in chunks,
// carrying the inter-request gap across chunk boundaries so the
// concatenation of its chunks is byte-identical to a one-shot
// ExtractTrace of the same source and budget (a tested guarantee).
// The chunked form is what the parallel replay pipeline works in:
// generation stays a single sequential stream (the generator is
// stateful), while downstream replay proceeds chunk by chunk.
type TraceStream struct {
	src   workload.Source
	left  int   // requests still to extract
	gap   int64 // think time accumulated since the last request
	insts int64 // instructions consumed so far
	done  bool  // source exhausted or budget reached
}

// NewTraceStream opens a chunked extraction of app's request stream at
// seed, budgeted at n requests.
func NewTraceStream(app workload.App, seed uint64, n int) *TraceStream {
	return NewSourceStream(workload.MustNewGenerator(app, seed), n)
}

// NewSourceStream opens a chunked extraction over an arbitrary
// instruction source, budgeted at n requests.
func NewSourceStream(src workload.Source, n int) *TraceStream {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative trace budget %d", n))
	}
	return &TraceStream{src: src, left: n}
}

// Next extracts the next chunk of up to limit requests, or nil when the
// stream is exhausted. Each returned slice is freshly allocated, so
// chunks may be handed to concurrent consumers.
func (s *TraceStream) Next(limit int) []memsys.Req {
	if s.done || limit <= 0 {
		return nil
	}
	if limit > s.left {
		limit = s.left
	}
	reqs := make([]memsys.Req, 0, limit)
	for len(reqs) < limit {
		in, ok := s.src.Next()
		if !ok {
			s.done = true
			break
		}
		s.insts++
		switch in.Kind {
		case workload.Load, workload.Store:
			reqs = append(reqs, memsys.Req{
				Addr:  in.Addr,
				Write: in.Kind == workload.Store,
				Gap:   s.gap,
			})
			s.gap = 0
		default:
			s.gap++
		}
	}
	s.left -= len(reqs)
	if s.left == 0 {
		s.done = true
	}
	if len(reqs) == 0 {
		return nil
	}
	return reqs
}

// Done reports whether the stream has no further requests.
func (s *TraceStream) Done() bool { return s.done }

// TailGap returns the think time accumulated after the last extracted
// request. It only settles once Done; mid-stream it is the gap carried
// into the next chunk.
func (s *TraceStream) TailGap() int64 { return s.gap }

// Instructions returns the total instructions consumed so far.
func (s *TraceStream) Instructions() int64 { return s.insts }

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

// Replay runs reqs through a fresh instance of org on the batched
// path and returns the aggregate result. Deterministic for a given
// (org, reqs, model).
//
//nurapid:coldpath
func Replay(model *cacti.Model, org Organization, reqs []memsys.Req) *ReplayResult {
	return ReplayTrace(model, org, Trace{Reqs: reqs})
}

// ReplayTrace replays a full Trace through a fresh instance of org:
// the request stream runs on the batched path, and the trace's trailing
// think time is added to FinalClock, so a bounded source's tail gap is
// no longer silently dropped from the replay's end-to-end latency. For
// a TailGap of zero the result is bit-identical to Replay.
//
//nurapid:coldpath
func ReplayTrace(model *cacti.Model, org Organization, t Trace) *ReplayResult {
	return replayTrace(model, org, t, len(t.Reqs))
}

// replayTrace is the one replay job behind ReplayTrace and ReplayAll: a
// fresh L2 and memory, t's requests driven through memsys.AccessMany in
// chunks of at most chunk requests, t's tail gap, and the result
// harvest. The completion clock is carried across chunk boundaries, and
// because AccessMany's replay rule (now_i = DoneAt_{i-1} + Gap_{i-1})
// threads one clock through the whole sequence, the chunked replay is
// bit-identical to a single call at any chunk size — the boundary is
// invisible to the organization's port and movement serialization.
// Cache state cannot be split, so within one (app, org) replay chunks
// stay strictly sequential.
//
//nurapid:coldpath
func replayTrace(model *cacti.Model, org Organization, t Trace, chunk int) *ReplayResult {
	if chunk <= 0 {
		chunk = DefaultChunkRequests
	}
	mem := memsys.NewMemory(org.blockBytes())
	l2 := org.Factory(model, mem)
	now := int64(0)
	for start := 0; start < len(t.Reqs); start += chunk {
		end := start + chunk
		if end > len(t.Reqs) {
			end = len(t.Reqs)
		}
		now = memsys.AccessMany(l2, now, t.Reqs[start:end], nil)
	}
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

// Package memsys defines the contract between the CPU model and the
// lower-level cache organizations (conventional hierarchy, D-NUCA,
// NuRAPID), plus the two pieces they all share: the main-memory model and
// the port-occupancy scoreboard.
//
// All timing flows through explicit cycle numbers: the CPU owns the
// clock, issues a typed request (Access(Req{Now: now, ...})), and the
// organization returns when the data will be available. Organizations
// update their internal state atomically at access time and model
// contention with Port scoreboards. Req.Core identifies the requesting
// core, so shared (CMP) front ends can attribute traffic, fairness, and
// contention per requestor without side channels.
package memsys

import "nurapid/internal/stats"

// AccessResult reports the outcome of one lower-level cache access.
type AccessResult struct {
	// Hit is true when the block was resident.
	Hit bool
	// DoneAt is the cycle at which the requested data is available.
	DoneAt int64
	// Group is the distance-group (or latency bank-group) that served a
	// hit, in latency order; -1 for a miss.
	Group int
}

// Req is one lower-level cache request: the issue cycle, the block
// address, the access direction, and the identity of the requestor.
// Core is the issuing core's id (0 in single-core simulations); shared
// organizations use it for per-core attribution, fairness accounting,
// and contention queuing, and it is carried into the obs event stream.
//
// Gap is only meaningful in batched sequences (AccessMany): it is the
// idle think time, in cycles, inserted after this request completes
// before the next one issues. Access ignores it.
type Req struct {
	Now   int64
	Addr  uint64
	Write bool
	Core  int
	Gap   int64
}

// LowerLevel is the single interface every L2 organization implements.
// Access fully handles the request, including fetching from memory on a
// miss and any internal block movement (promotions, demotions, swaps).
type LowerLevel interface {
	// Name identifies the organization in experiment output.
	Name() string
	// Access performs the read or write described by req, issued at
	// cycle req.Now by core req.Core.
	//nurapid:hotpath
	Access(req Req) AccessResult
	// Distribution returns where accesses were served (per latency
	// group, plus misses) — the paper's Figures 4, 5, 7 data.
	Distribution() *stats.Distribution
	// EnergyNJ returns the total dynamic energy consumed so far,
	// including tag arrays, data arrays, wires, and search structures,
	// but excluding main memory.
	EnergyNJ() float64
	// Counters exposes the organization's event counts (swaps,
	// demotions, writebacks, d-group accesses, ...).
	Counters() *stats.Counters
}

// Releaser is implemented by organizations whose large storage (tag
// arrays, frame stores) comes from process-wide free lists. Release
// hands that storage back once the organization's results are
// harvested, so the next organization built reuses it; the results
// already read stay valid, and any later access panics.
type Releaser interface {
	Release()
}

// BatchAccessor is implemented by lower levels that take a whole batch
// in one call; AccessMany hands such a batch over unchanged. No
// organization implements it — every organization is replayed by the
// one loop in AccessMany — but a wrapper that times or traces each
// replay chunk as a unit does. An implementation must be observably
// identical to that loop.
type BatchAccessor interface {
	//nurapid:hotpath
	AccessMany(now int64, reqs []Req, out []AccessResult) int64
}

// AccessMany replays reqs through l2 back to back: request i issues at
// the completion time of request i-1 plus request i-1's Gap, with the
// whole sequence seeded at now (each request's own Now field is
// ignored; its Core is forwarded). When out is non-nil it must have
// len(reqs) and receives each per-request result. The return value is
// the completion cycle of the final request plus its Gap (now when
// reqs is empty).
//
//nurapid:hotpath
func AccessMany(l2 LowerLevel, now int64, reqs []Req, out []AccessResult) int64 {
	if ba, ok := l2.(BatchAccessor); ok {
		return ba.AccessMany(now, reqs, out)
	}
	for i := range reqs {
		q := reqs[i]
		q.Now = now
		r := l2.Access(q)
		if out != nil {
			out[i] = r
		}
		now = r.DoneAt + reqs[i].Gap
	}
	return now
}

// Memory models main memory with the paper's Table 1 parameters:
// a fixed access latency plus a per-8-byte transfer charge.
type Memory struct {
	BaseLatency int64   // cycles before the first 8 bytes arrive
	PerChunk    int64   // cycles per 8-byte chunk
	BlockBytes  int     // transfer size
	AccessNJ    float64 // dynamic energy per block transfer

	Accesses int64
	Writes   int64
	energy   float64
}

// NewMemory returns the paper's memory model: 130 cycles + 4 cycles per
// 8 bytes, so a 128-byte block costs 194 cycles. The energy constant is
// not in the paper's Table 2; 40 nJ per block transfer is a typical
// DRAM+bus figure for the era and is documented in EXPERIMENTS.md.
func NewMemory(blockBytes int) *Memory {
	return &Memory{
		BaseLatency: 130,
		PerChunk:    4,
		BlockBytes:  blockBytes,
		AccessNJ:    40,
	}
}

// Latency returns the block-transfer latency in cycles.
func (m *Memory) Latency() int64 {
	return m.BaseLatency + m.PerChunk*int64(m.BlockBytes/8)
}

// Read fetches one block starting at cycle now and returns the completion
// cycle.
//
//nurapid:hotpath
func (m *Memory) Read(now int64) int64 {
	m.Accesses++
	m.energy += m.AccessNJ
	return now + m.Latency()
}

// Write retires one block writeback. Writebacks are buffered and do not
// stall the requester, so no completion time is returned.
//
//nurapid:hotpath
func (m *Memory) Write() {
	m.Accesses++
	m.Writes++
	m.energy += m.AccessNJ
}

// EnergyNJ returns total memory energy so far.
func (m *Memory) EnergyNJ() float64 { return m.energy }

// Snapshot emits the memory model's parameters and traffic counters
// (statsreg convention: every counter field must appear here).
func (m *Memory) Snapshot() []stats.KV {
	return []stats.KV{
		{Name: "base_latency_cycles", Value: float64(m.BaseLatency)},
		{Name: "per_chunk_cycles", Value: float64(m.PerChunk)},
		{Name: "access_nj", Value: m.AccessNJ},
		{Name: "accesses", Value: float64(m.Accesses)},
		{Name: "writes", Value: float64(m.Writes)},
		{Name: "energy_nj", Value: m.energy},
	}
}

// Port is an occupancy scoreboard for a single-ported resource: a
// non-banked cache, or one bank of a multibanked one.
type Port struct {
	freeAt int64
	// issueEnd is the end of the last Acquire's own interval; Extend
	// does not move it, so freeAt-issueEnd is the movement debt the
	// next access inherits.
	issueEnd int64

	// BusyCycles accumulates total occupied time, for utilization stats.
	BusyCycles int64
	// Conflicts counts acquisitions that had to wait.
	Conflicts int64
	// WaitCycles accumulates total time spent waiting.
	WaitCycles int64
}

// Acquire occupies the port for duration cycles starting no earlier than
// now, returning the actual start cycle (= now when the port was free).
//
//nurapid:hotpath
func (p *Port) Acquire(now, duration int64) int64 {
	start := now
	if p.freeAt > now {
		start = p.freeAt
		p.Conflicts++
		p.WaitCycles += p.freeAt - now
	}
	p.freeAt = start + duration
	p.issueEnd = p.freeAt
	p.BusyCycles += duration
	return start
}

// Ripple returns the part of an access's wait at now that earlier
// Extend calls caused: the port time booked past the last issue
// interval and still outstanding at now. Call it before Acquire.
//
//nurapid:hotpath
func (p *Port) Ripple(now int64) int64 {
	return max(0, p.freeAt-max(now, p.issueEnd))
}

// Extend lengthens the current occupancy by duration cycles — used when
// an access discovers follow-on work (swaps, demotions) after it has
// already acquired the port.
//
//nurapid:hotpath
func (p *Port) Extend(duration int64) {
	p.freeAt += duration
	p.BusyCycles += duration
}

// FreeAt returns the cycle at which the port next becomes free.
//
//nurapid:hotpath
func (p *Port) FreeAt() int64 { return p.freeAt }

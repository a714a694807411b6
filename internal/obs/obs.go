// Package obs is the microarchitectural observability layer: a typed
// probe interface the cache organizations (internal/nurapid, nuca, uca)
// emit fine-grained events into — per-access outcomes, placement,
// promotion, each demotion-chain link with its depth, evictions, and
// swap-buffer backlog — plus ready-made probes: an in-memory Collector
// (histograms + counters), an epoch-based d-group occupancy Sampler,
// a buffered JSONL TraceSink, and Multi for fan-out.
//
// The paper's key claims live below the run level: demotion chains that
// "ripple until an empty frame absorbs them", promotion traffic, and
// per-d-group residence (Figures 4, 5, 7). Run-level IPC says which
// policy wins; this layer shows why.
//
// Ordering contract: every organization emits the events of one access
// in the same canonical order — KindAccess first, then either KindHit
// (with any KindPromote/KindDemote/KindPlace movement events after it,
// or a single KindBypass where a suppressed promotion's movement would
// have appeared) or KindMiss, followed by KindEvict when a valid block
// was displaced and the KindDemote links and final KindPlace of the
// fill, then at most a KindSwap backlog report. In particular Miss
// always precedes Evict, and Evict precedes Place within one access.
// Multi-level organizations (uca.Hierarchy) apply the order per level:
// an inner level's Evict and Place (the groups a caller names to
// CheckOrder as inner) may precede the outcome, and KindMiss is
// reserved for the outermost miss to memory.
//
// The CMP front end (internal/cmp) extends the window at both ends:
// a queued access opens with KindEnqueue (bank id and instantaneous
// queue depth) immediately followed by KindIssue (the grant cycle and
// the queue-wait it absorbed), then the organization's canonical
// window above; a write's coherence shoot-downs close the window with
// one KindInval per private L1D copy dropped, after the outcome.
// Single-core runs never emit the queue-side kinds, so their traces
// stay byte-identical to the pre-CMP format.
//
// CheckOrder is the one executable statement of this contract. The
// runtime pins run it over recorded streams: TestEventOrderCanonical
// (internal/sim) for every organization family,
// TestCMPEventOrderCanonical (internal/cmp) for the queued window, and
// the differential oracle (internal/refmodel/difftest) for both sides
// of every fast-vs-spec comparison.
//
// Overhead contract: probes are strictly observational (they never alter
// simulated state or timing), events are fixed-size 48-byte structs
// passed by value (no allocation on the emitting path), and every
// emission site — with any work done only to fill an event, such as
// reading the port's ripple for a KindHit/KindMiss stamp — sits behind
// a nil-probe check, so a simulation without a probe pays one
// predictable branch per event site and rendered experiment output
// stays byte-identical to a probe-free build. Timing a probe needs is
// stamped where the organization computes it; no probe re-simulates it
// from the stream. With a fixed workload seed, the event stream is
// deterministic: two traced runs of the same (app, organization, seed)
// produce identical event sequences.
package obs

import (
	"fmt"
	"io"

	"nurapid/internal/stats"
)

// Kind distinguishes the microarchitectural events a Probe sees.
type Kind uint8

const (
	// KindAccess fires once per lower-level cache access, before the
	// outcome is known. Addr and Write are set.
	KindAccess Kind = iota
	// KindHit fires when an access is served by the cache. Group is the
	// serving d-group (latency group), Lat the observed serve latency in
	// cycles, port/bank queueing included, and PortWait/Ripple the
	// port stamps where the organization sets them.
	KindHit
	// KindMiss fires when an access misses to memory. Addr is set, and
	// PortWait/Ripple as on KindHit.
	KindMiss
	// KindPlace fires when a block is installed into a free frame:
	// Group is the absorbing d-group and Depth the number of demotion
	// links that rippled before this install (0 = direct placement).
	// Every placement chain ends in exactly one KindPlace.
	KindPlace
	// KindPromote fires when a hit block leaves Group `From` to be
	// re-placed closer (Group is the requested destination); the
	// subsequent KindDemote/KindPlace events describe where the
	// displaced blocks went.
	KindPromote
	// KindDemote fires once per demotion-chain link: the victim of
	// Group `From` is displaced into Group `Group`. Depth is the link's
	// 1-based index within its chain.
	KindDemote
	// KindEvict fires when a block leaves the cache entirely (data
	// replacement). Group is the d-group whose frame was freed, Dirty
	// whether the victim required a writeback.
	KindEvict
	// KindSwap reports swap-buffer pressure after a movement chain: Lat
	// is the single port's outstanding backlog in cycles beyond the
	// access that triggered the movement.
	KindSwap
	// KindEnqueue fires when a request arrives at the shared bank queue
	// (CMP runs only), before bank arbitration. Addr, Core, and Write
	// are set; Group carries the bank id and Depth the bank's
	// instantaneous queue depth in requests (saturated at 255).
	KindEnqueue
	// KindIssue fires when the bank grants the enqueued request. Now is
	// the grant cycle, Group the bank id, Core the requester, and Lat
	// the queue-wait in cycles (grant cycle minus arrival cycle).
	KindIssue
	// KindInval fires once per private L1D copy a write's coherence
	// shoot-down dropped (CMP runs only). Addr is the block, Core the
	// victim core (never the writer), and Now the cycle the write's
	// shared-level access completed.
	KindInval
	// KindBypass fires when the predictive promotion policy suppresses a
	// hit block's promotion because the reuse-distance predictor flags it
	// as dead/streaming (nurapid.PredictiveBypass). Group is the d-group
	// that served the hit and keeps the block. In the canonical order it
	// follows KindHit where the movement events of a promotion would
	// otherwise appear.
	KindBypass

	numKinds
)

// kindNames are the Kind wire names used in JSONL traces, indexed by
// Kind. New kinds append — existing indices and wire names are part of
// the trace format.
var kindNames = [numKinds]string{
	"access", "hit", "miss", "place", "promote", "demote", "evict", "swap",
	"enqueue", "issue", "inval", "bypass",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName resolves a trace wire name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one microarchitectural event. It is a fixed-size value —
// emitting one allocates nothing — and only the fields meaningful for
// its Kind are set; group fields are -1 when not applicable. Use the
// constructor helpers (Access, Hit, ...) so the not-applicable fields
// get their canonical values.
type Event struct {
	// Now is the cycle of the access that produced the event.
	Now int64
	// Addr is the accessed block address (KindAccess, KindMiss).
	Addr uint64
	// Core is the requesting core's id, set on KindAccess, KindEnqueue,
	// and KindIssue events (memsys.Req.Core; 0 in single-core
	// simulations) and the victim core on KindInval. The events that
	// follow an access in the canonical order belong to the same
	// requestor, so per-core trace analysis needs it only at the window
	// boundaries.
	Core int16
	// Group is the serving or destination d-group, or the bank id on
	// KindEnqueue/KindIssue; -1 when n/a.
	Group int16
	// From is the source d-group of a movement; -1 when n/a.
	From int16
	// Depth is the demotion-chain link index (KindDemote, 1-based), the
	// chain length absorbed by an install (KindPlace), or the bank's
	// queue depth at arrival (KindEnqueue, saturated at 255).
	Depth uint8
	// Write marks a write access (KindAccess).
	Write bool
	// Dirty marks an eviction that required a writeback (KindEvict).
	Dirty bool
	// Kind sits after the flags so the two port stamps below fill what
	// would otherwise be padding: the struct stays 48 bytes.
	Kind Kind
	// PortWait is the cycles a KindHit or KindMiss waited for the
	// organization's port before it started, and Ripple the part of
	// that wait owed to earlier accesses' block movement (0 <= Ripple
	// <= PortWait). NuRAPID and its executable spec stamp them; other
	// organizations and decoded traces leave them 0 (the JSONL format
	// does not carry them).
	PortWait, Ripple int32
	// Lat is the observed hit latency (KindHit), the port backlog in
	// cycles a movement chain left behind (KindSwap), or the queue-wait
	// in cycles (KindIssue).
	Lat int64
}

// Access builds a KindAccess event issued by core.
//
//nurapid:hotpath
func Access(now int64, addr uint64, write bool, core int) Event {
	return Event{Kind: KindAccess, Now: now, Addr: addr, Core: int16(core), Group: -1, From: -1, Write: write}
}

// Hit builds a KindHit event for a hit served by group at the observed
// latency.
//
//nurapid:hotpath
func Hit(now int64, group int, lat int64) Event {
	return Event{Kind: KindHit, Now: now, Group: int16(group), From: -1, Lat: lat}
}

// Miss builds a KindMiss event.
//
//nurapid:hotpath
func Miss(now int64, addr uint64) Event {
	return Event{Kind: KindMiss, Now: now, Addr: addr, Group: -1, From: -1}
}

// Stamp returns the KindHit or KindMiss event e stamped with the
// access's port wait and the ripple part of it.
//
//nurapid:hotpath
func (e Event) Stamp(wait, ripple int64) Event {
	e.PortWait, e.Ripple = int32(wait), int32(ripple)
	return e
}

// Place builds a KindPlace event: a block absorbed by a free frame of
// group after depth demotion links.
//
//nurapid:hotpath
func Place(now int64, group, depth int) Event {
	return Event{Kind: KindPlace, Now: now, Group: int16(group), From: -1, Depth: uint8(depth)}
}

// Promote builds a KindPromote event: a block left `from` heading for
// `to`.
//
//nurapid:hotpath
func Promote(now int64, from, to int) Event {
	return Event{Kind: KindPromote, Now: now, Group: int16(to), From: int16(from)}
}

// DemoteLink builds a KindDemote event: chain link number depth
// displaced the victim of `from` into `to`.
//
//nurapid:hotpath
func DemoteLink(now int64, from, to, depth int) Event {
	return Event{Kind: KindDemote, Now: now, Group: int16(to), From: int16(from), Depth: uint8(depth)}
}

// Evict builds a KindEvict event: a block left the cache, freeing a
// frame in group.
//
//nurapid:hotpath
func Evict(now int64, group int, dirty bool) Event {
	return Event{Kind: KindEvict, Now: now, Group: int16(group), From: -1, Dirty: dirty}
}

// SwapBacklog builds a KindSwap event: after a movement chain, the
// single port is booked lat cycles beyond the triggering access.
//
//nurapid:hotpath
func SwapBacklog(now, lat int64) Event {
	return Event{Kind: KindSwap, Now: now, Group: -1, From: -1, Lat: lat}
}

// Enqueue builds a KindEnqueue event: core's request for addr arrived
// at its bank's queue at cycle now, finding depth requests' worth of
// backlog ahead of it (saturated at 255).
//
//nurapid:hotpath
func Enqueue(now int64, addr uint64, bank, core int, write bool, depth int) Event {
	return Event{Kind: KindEnqueue, Now: now, Addr: addr, Core: int16(core),
		Group: int16(bank), From: -1, Write: write, Depth: uint8(depth)}
}

// Issue builds a KindIssue event: the bank granted core's enqueued
// request at cycle now after wait cycles in the queue.
//
//nurapid:hotpath
func Issue(now int64, bank, core int, wait int64) Event {
	return Event{Kind: KindIssue, Now: now, Core: int16(core), Group: int16(bank),
		From: -1, Lat: wait}
}

// Inval builds a KindInval event: a coherence shoot-down dropped addr
// from victim core's private L1D at cycle now.
//
//nurapid:hotpath
func Inval(now int64, addr uint64, core int) Event {
	return Event{Kind: KindInval, Now: now, Addr: addr, Core: int16(core),
		Group: -1, From: -1}
}

// Bypass builds a KindBypass event: the reuse-distance predictor
// suppressed the promotion of the hit block, which stays in group.
//
//nurapid:hotpath
func Bypass(now int64, group int) Event {
	return Event{Kind: KindBypass, Now: now, Group: int16(group), From: -1}
}

// LatencyProfile is the static half of an organization's timing: the
// per-access latencies its KindHit/KindMiss events do not carry. With
// the events' port stamps it lets the TimeSeries waterfall split each
// access's latency without touching simulated state. The zero value
// means "no profile" (SetProfile ignores it).
type LatencyProfile struct {
	// TagCycles is the tag-probe latency charged before the data array.
	TagCycles int64
	// MemCycles is the memory round-trip a miss pays after the tag
	// probe.
	MemCycles int64
}

// Valid reports whether the profile carries a usable timing model.
func (p LatencyProfile) Valid() bool {
	return p.TagCycles > 0 && p.MemCycles > 0
}

// LatencyProfiler is implemented by organizations (and wrappers like
// cmp.Queue) that can describe their static timing for waterfall
// attribution. Implementations return the zero LatencyProfile when no
// model is available.
type LatencyProfiler interface {
	LatencyProfile() LatencyProfile
}

// Probe receives microarchitectural events from one cache instance.
// Implementations are called synchronously from the simulation's hot
// path: they must be cheap, must not retain pointers into the caller,
// and need no locking (one simulation runs on one goroutine).
type Probe interface {
	//nurapid:hotpath
	Emit(Event)
}

// Probeable is implemented by cache organizations that accept a probe.
// SetProbe must be called before the first access; a nil probe restores
// the zero-overhead fast path.
type Probeable interface {
	SetProbe(Probe)
}

// multi fans events out to several probes in order.
type multi []Probe

// Multi returns a probe that forwards every event to each non-nil probe
// in order. With zero or one non-nil probes it returns nil or that
// probe directly, keeping the fast path short.
func Multi(probes ...Probe) Probe {
	kept := make(multi, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// Emit implements Probe.
func (m multi) Emit(e Event) {
	for _, p := range m {
		p.Emit(e)
	}
}

// Snapshot concatenates the sub-probes' snapshots in fan-out order, so
// a composed probe reports everything its members report (sim harvests
// snapshots through this interface).
func (m multi) Snapshot() []stats.KV {
	var parts [4][]stats.KV
	snaps := parts[:0]
	n := 0
	for _, p := range m {
		if s, ok := p.(interface{ Snapshot() []stats.KV }); ok {
			kvs := s.Snapshot()
			snaps = append(snaps, kvs)
			n += len(kvs)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]stats.KV, 0, n)
	for _, kvs := range snaps {
		out = append(out, kvs...)
	}
	return out
}

// Close closes every sub-probe that holds resources, returning the
// first error.
func (m multi) Close() error {
	var first error
	for _, p := range m {
		if c, ok := p.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

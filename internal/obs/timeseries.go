package obs

import "nurapid/internal/stats"

// DefaultWindowCycles is the TimeSeries' default epoch length: 65536
// cycles keeps a 2M-instruction CMP run's timeline within the ring.
const DefaultWindowCycles = 1 << 16

// tsRingWindows bounds the retained window ring. Older windows are
// evicted (their per-access contributions stay in the all-time
// aggregates); consumers rendering the timeline must say so — the ring
// is the last tsRingWindows active windows, not the whole run.
const tsRingWindows = 64

// Waterfall component indices: every attributed access's latency is
// split exactly into these five parts (they sum to DoneAt minus the
// enqueue cycle).
const (
	// WfQueueWait is time spent in the shared bank queue before issue.
	WfQueueWait = iota
	// WfBankBusy is time the organization's port was busy with other
	// accesses' issue intervals.
	WfBankBusy
	// WfTagProbe is the tag-array probe.
	WfTagProbe
	// WfDataAccess is the serving d-group's data array + wire time on a
	// hit, or the memory round-trip on a miss.
	WfDataAccess
	// WfPromotionRipple is port backlog left behind by earlier accesses'
	// promotion/demotion movement chains.
	WfPromotionRipple

	// NumWaterfall is the component count.
	NumWaterfall
)

// WaterfallNames are the metric-name suffixes per component, indexed by
// the Wf constants.
var WaterfallNames = [NumWaterfall]string{
	"queue_wait", "bank_busy", "tag_probe", "data_access", "promotion_ripple",
}

// CoreLatency is one core's all-time view of the shared level as seen
// through the event stream.
type CoreLatency struct {
	// Accesses and Hits count completed access windows.
	Accesses, Hits int64
	// Invals counts L1D shoot-downs this core absorbed as a victim.
	Invals int64
	// QueueWaitCycles sums bank-queue wait before issue.
	QueueWaitCycles int64
	// LatencyCycles sums end-to-end latency over LatencySamples
	// accesses whose completion time was observable (all accesses with
	// a latency profile; hits only without one).
	LatencyCycles, LatencySamples int64
}

// BankStat is one queue bank's all-time contention view.
type BankStat struct {
	// Enqueues counts requests hashed to the bank.
	Enqueues int64
	// WaitCycles sums queue wait absorbed at the bank.
	WaitCycles int64
	// DepthHWM is the deepest instantaneous queue ever seen at arrival.
	DepthHWM int64
}

// WindowStat is one fixed-cycle epoch of the timeline.
type WindowStat struct {
	// Epoch is the window index: the window spans cycles
	// [Epoch*EpochCycles, (Epoch+1)*EpochCycles). Windows with no
	// activity are skipped.
	Epoch int64
	// Accesses and Hits count the windows' completed accesses.
	Accesses, Hits int64
	// PerCoreAccesses is Accesses split by requesting core.
	PerCoreAccesses []int64
	// PerBankWaitCycles is queue wait accumulated per bank.
	PerBankWaitCycles []int64
	// PerBankDepthHWM is the deepest queue seen per bank within the
	// window.
	PerBankDepthHWM []int64
	// Fairness is Jain's index over PerCoreAccesses (1 = perfectly
	// fair).
	Fairness float64
}

// tsCore, tsBank, tsWindow are the mutable internal counterparts; the
// exported stat structs above are copied out on demand.
type tsCore struct {
	accesses, hits, invals, queueWait, latency, latSamples int64
	lat                                                    *stats.Histogram
}

type tsBank struct {
	enqueues, waitCycles, depthHWM int64
	wait                           *stats.Histogram
}

type tsWindow struct {
	epoch          int64
	accesses, hits int64
	perCore        []int64
	perBankWait    []int64
	perBankHWM     []int64
	fairness       float64
	closed         bool
}

// tsOpen is the in-flight access window's scratch state.
type tsOpen struct {
	open        bool
	core, bank  int
	depth       int64
	enq         int64 // arrival cycle (enqueue, or access when unqueued)
	queueWait   int64
	haveOutcome bool
	hit         bool
	attributed  bool
	done        int64
	comps       [NumWaterfall]int64
}

// latency histogram geometry: 16-cycle buckets to 512 cycles cover a
// contended miss (queue wait + tag + memory); bank-wait histograms use
// 4-cycle buckets to 64 (one bucket per queued request ahead).
const (
	tsLatBuckets  = 32
	tsLatWidth    = 16
	tsWaitBuckets = 16
	tsWaitWidth   = 4
)

// TimeSeries is the windowed time-series registry: it folds the event
// stream into a fixed-epoch ring of per-core and per-bank activity
// (rolling Jain fairness, queue-depth high-water marks) plus all-time
// per-core latency and per-bank wait histograms, and — when the
// observed organization supplies a LatencyProfile — attributes every
// completed access's latency into the five waterfall components, whose
// sum equals the access's reported latency exactly. The queue wait
// comes from KindIssue, the port wait and its ripple part from the
// outcome event's stamps, and the tag and memory cycles from the
// profile; the data part of a hit is what its latency leaves.
//
// Like every probe it is strictly observational and single-goroutine.
// Emit allocates only while growing (first sight of a core, bank, or
// window); steady state is allocation-free.
type TimeSeries struct {
	name        string
	epochCycles int64
	profile     LatencyProfile

	ring    []tsWindow
	head    int
	count   int
	started int64

	cores []tsCore
	banks []tsBank
	fair  []float64 // Jain-index scratch, one entry per core, reused

	wfComps        [NumWaterfall]int64
	wfAccesses     int64
	wfUnattributed int64

	a tsOpen
}

// NewTimeSeries builds a registry named name (metric-name convention:
// lower_snake_case, enforced by the statsreg analyzer) with the given
// window length in cycles; epochCycles <= 0 selects
// DefaultWindowCycles.
func NewTimeSeries(name string, epochCycles int64) *TimeSeries {
	if epochCycles <= 0 {
		epochCycles = DefaultWindowCycles
	}
	return &TimeSeries{
		name:        name,
		epochCycles: epochCycles,
		ring:        make([]tsWindow, tsRingWindows),
	}
}

// SetProfile installs the observed organization's timing model,
// enabling waterfall attribution. Call before the first event; an
// invalid (zero) profile is ignored, leaving the registry in its
// histogram-only mode.
func (ts *TimeSeries) SetProfile(p LatencyProfile) {
	if p.Valid() {
		ts.profile = p
	}
}

// Name returns the registry's metric name prefix.
func (ts *TimeSeries) Name() string { return ts.name }

// EpochCycles returns the window length in cycles.
func (ts *TimeSeries) EpochCycles() int64 { return ts.epochCycles }

// Emit implements Probe.
func (ts *TimeSeries) Emit(e Event) {
	switch e.Kind {
	case KindEnqueue:
		ts.finalize()
		ts.a = tsOpen{
			open:  true,
			core:  int(e.Core),
			bank:  int(e.Group),
			depth: int64(e.Depth),
			enq:   e.Now,
		}
	case KindIssue:
		ts.a.queueWait = e.Lat
	case KindAccess:
		if !ts.a.open {
			ts.finalize()
			ts.a = tsOpen{open: true, core: int(e.Core), bank: -1, enq: e.Now}
		}
		ts.a.core = int(e.Core)
	case KindHit, KindMiss:
		ts.outcome(e)
	case KindInval:
		ts.growCores(int(e.Core))
		ts.cores[e.Core].invals++
	}
}

// outcome records the access's result and, with a profile, splits its
// latency into the waterfall components from the event's port stamps.
// The five parts sum to done-enq by construction.
func (ts *TimeSeries) outcome(e Event) {
	if !ts.a.open || ts.a.haveOutcome {
		// Ignore inner-level outcomes of multi-level organizations; the
		// first outcome is the shared level's.
		return
	}
	a := &ts.a
	a.haveOutcome = true
	a.hit = e.Kind == KindHit
	if a.hit {
		a.done = e.Now + e.Lat
	}
	if !ts.profile.Valid() {
		return
	}
	wait, ripple, tag := int64(e.PortWait), int64(e.Ripple), ts.profile.TagCycles
	data := ts.profile.MemCycles
	if a.hit {
		data = e.Lat - wait - tag
	} else {
		a.done = e.Now + wait + tag + data
	}
	a.attributed = true
	a.comps = [NumWaterfall]int64{WfQueueWait: a.queueWait, WfBankBusy: wait - ripple,
		WfTagProbe: tag, WfDataAccess: data, WfPromotionRipple: ripple}
}

// finalize folds the completed in-flight access into the aggregates
// and its window, then clears the scratch state.
func (ts *TimeSeries) finalize() {
	if !ts.a.open {
		return
	}
	a := &ts.a
	ts.growCores(a.core)
	c := &ts.cores[a.core]
	c.accesses++
	if a.hit {
		c.hits++
	}
	c.queueWait += a.queueWait

	w := ts.window(a.enq)
	w.accesses++
	if a.hit {
		w.hits++
	}
	w.perCore = growInt64(w.perCore, a.core)
	w.perCore[a.core]++

	if a.bank >= 0 {
		ts.growBanks(a.bank)
		b := &ts.banks[a.bank]
		b.enqueues++
		b.waitCycles += a.queueWait
		if a.depth > b.depthHWM {
			b.depthHWM = a.depth
		}
		b.wait.Add(a.queueWait)
		w.perBankWait = growInt64(w.perBankWait, a.bank)
		w.perBankWait[a.bank] += a.queueWait
		w.perBankHWM = growInt64(w.perBankHWM, a.bank)
		if a.depth > w.perBankHWM[a.bank] {
			w.perBankHWM[a.bank] = a.depth
		}
	}

	if a.attributed {
		for i, v := range a.comps {
			ts.wfComps[i] += v
		}
		ts.wfAccesses++
	} else {
		ts.wfUnattributed++
	}
	// A window whose outcome completes before it opened exists only in
	// a malformed trace; it has no observable latency.
	if lat := a.done - a.enq; (a.attributed || (a.haveOutcome && a.hit)) && lat >= 0 {
		c.latency += lat
		c.latSamples++
		c.lat.Add(lat)
	}
	a.open = false
}

// Flush finalizes any in-flight access so aggregates include it.
// Snapshot calls it; tests use it to observe per-access deltas.
func (ts *TimeSeries) Flush() { ts.finalize() }

// window returns the window covering cycle now, rotating the ring
// forward as needed. Out-of-order cycles (round-robin core stepping
// makes arrival cycles only near-monotone) clamp to the newest window.
func (ts *TimeSeries) window(now int64) *tsWindow {
	idx := now / ts.epochCycles
	if ts.count > 0 {
		cur := &ts.ring[(ts.head+ts.count-1)%len(ts.ring)]
		if idx <= cur.epoch {
			return cur
		}
		ts.closeWindow(cur)
	}
	ts.started++
	var w *tsWindow
	if ts.count < len(ts.ring) {
		w = &ts.ring[(ts.head+ts.count)%len(ts.ring)]
		ts.count++
	} else {
		// Ring full: recycle the oldest window's storage.
		w = &ts.ring[ts.head]
		ts.head = (ts.head + 1) % len(ts.ring)
	}
	w.epoch = idx
	w.accesses, w.hits = 0, 0
	w.perCore = zeroInt64(w.perCore)
	w.perBankWait = zeroInt64(w.perBankWait)
	w.perBankHWM = zeroInt64(w.perBankHWM)
	w.fairness = 0
	w.closed = false
	return w
}

// closeWindow stamps the window's fairness over every core the run has
// seen (cores idle in the window count as zeros).
func (ts *TimeSeries) closeWindow(w *tsWindow) {
	w.fairness = ts.windowFairness(w)
	w.closed = true
}

func (ts *TimeSeries) windowFairness(w *tsWindow) float64 {
	ts.fair = ts.fair[:0]
	for i := range ts.cores {
		var x float64
		if i < len(w.perCore) {
			x = float64(w.perCore[i])
		}
		ts.fair = append(ts.fair, x)
	}
	return stats.JainIndex(ts.fair)
}

func (ts *TimeSeries) growCores(core int) {
	for len(ts.cores) <= core {
		i := len(ts.cores)
		ts.cores = append(ts.cores, tsCore{
			lat: stats.NewHistogram(stats.Name(ts.name, "_core", stats.Itoa(i), "_lat"), tsLatBuckets, tsLatWidth),
		})
	}
}

func (ts *TimeSeries) growBanks(bank int) {
	for len(ts.banks) <= bank {
		i := len(ts.banks)
		ts.banks = append(ts.banks, tsBank{
			wait: stats.NewHistogram(stats.Name(ts.name, "_bank", stats.Itoa(i), "_wait"), tsWaitBuckets, tsWaitWidth),
		})
	}
}

func growInt64(s []int64, i int) []int64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// zeroInt64 truncates a reused window slice; growInt64 re-extends it
// with explicit zeros, so recycled capacity never leaks old values.
func zeroInt64(s []int64) []int64 { return s[:0] }

// WaterfallTotals returns the accumulated waterfall components and the
// number of attributed accesses. Call Flush first to include an
// in-flight access.
func (ts *TimeSeries) WaterfallTotals() ([NumWaterfall]int64, int64) {
	return ts.wfComps, ts.wfAccesses
}

// Unattributed returns the number of completed accesses that got no
// waterfall (no latency profile installed).
func (ts *TimeSeries) Unattributed() int64 { return ts.wfUnattributed }

// CoreStats copies out the all-time per-core view, indexed by core id.
func (ts *TimeSeries) CoreStats() []CoreLatency {
	out := make([]CoreLatency, len(ts.cores))
	for i := range ts.cores {
		c := &ts.cores[i]
		out[i] = CoreLatency{
			Accesses: c.accesses, Hits: c.hits, Invals: c.invals,
			QueueWaitCycles: c.queueWait,
			LatencyCycles:   c.latency, LatencySamples: c.latSamples,
		}
	}
	return out
}

// BankStats copies out the all-time per-bank view, indexed by bank id.
// Runs without a shared queue (no KindEnqueue events) return an empty
// slice.
func (ts *TimeSeries) BankStats() []BankStat {
	out := make([]BankStat, len(ts.banks))
	for i := range ts.banks {
		b := &ts.banks[i]
		out[i] = BankStat{Enqueues: b.enqueues, WaitCycles: b.waitCycles, DepthHWM: b.depthHWM}
	}
	return out
}

// Windows copies out the retained ring, oldest first: the last
// tsRingWindows active windows (earlier ones were evicted, though
// their accesses remain in the all-time aggregates).
func (ts *TimeSeries) Windows() []WindowStat {
	out := make([]WindowStat, 0, ts.count)
	for k := 0; k < ts.count; k++ {
		w := &ts.ring[(ts.head+k)%len(ts.ring)]
		fair := w.fairness
		if !w.closed {
			fair = ts.windowFairness(w)
		}
		out = append(out, WindowStat{
			Epoch:             w.epoch,
			Accesses:          w.accesses,
			Hits:              w.hits,
			PerCoreAccesses:   append([]int64(nil), w.perCore...),
			PerBankWaitCycles: append([]int64(nil), w.perBankWait...),
			PerBankDepthHWM:   append([]int64(nil), w.perBankHWM...),
			Fairness:          fair,
		})
	}
	return out
}

// Fairness returns Jain's index over the cores' all-time access
// counts.
func (ts *TimeSeries) Fairness() float64 {
	ts.fair = ts.fair[:0]
	for i := range ts.cores {
		ts.fair = append(ts.fair, float64(ts.cores[i].accesses))
	}
	return stats.JainIndex(ts.fair)
}

// Snapshot emits the registry's aggregates (statsreg convention: every
// counter field must appear here): epoch geometry, waterfall totals,
// rolling fairness, and the per-core / per-bank counters and
// histograms. It flushes any in-flight access first.
func (ts *TimeSeries) Snapshot() []stats.KV {
	ts.Flush()
	n := 6 + len(ts.wfComps)
	for i := range ts.cores {
		n += 6 + ts.cores[i].lat.SnapshotLen()
	}
	for i := range ts.banks {
		n += 3 + ts.banks[i].wait.SnapshotLen()
	}
	out := make([]stats.KV, 0, n)
	out = append(out,
		stats.KV{Name: stats.Name(ts.name, "_epoch_cycles"), Value: float64(ts.epochCycles)},
		stats.KV{Name: stats.Name(ts.name, "_windows_started"), Value: float64(ts.started)},
		stats.KV{Name: stats.Name(ts.name, "_wf_accesses"), Value: float64(ts.wfAccesses)},
		stats.KV{Name: stats.Name(ts.name, "_wf_unattributed"), Value: float64(ts.wfUnattributed)},
	)
	for i, v := range ts.wfComps {
		out = append(out, stats.KV{
			Name:  stats.Name(ts.name, "_wf_", WaterfallNames[i], "_cycles"),
			Value: float64(v),
		})
	}
	out = append(out, stats.KV{Name: stats.Name(ts.name, "_fairness"), Value: ts.Fairness()})
	var winFair float64
	var closed int
	for k := 0; k < ts.count; k++ {
		w := &ts.ring[(ts.head+k)%len(ts.ring)]
		if w.closed {
			winFair += w.fairness
			closed++
		}
	}
	if closed == 0 {
		winFair, closed = 1, 1
	}
	out = append(out, stats.KV{Name: stats.Name(ts.name, "_fairness_window"), Value: winFair / float64(closed)})
	for i := range ts.cores {
		c := &ts.cores[i]
		id := stats.Itoa(i)
		out = append(out,
			stats.KV{Name: stats.Name(ts.name, "_core", id, "_accesses"), Value: float64(c.accesses)},
			stats.KV{Name: stats.Name(ts.name, "_core", id, "_hits"), Value: float64(c.hits)},
			stats.KV{Name: stats.Name(ts.name, "_core", id, "_invals"), Value: float64(c.invals)},
			stats.KV{Name: stats.Name(ts.name, "_core", id, "_queue_wait_cycles"), Value: float64(c.queueWait)},
			stats.KV{Name: stats.Name(ts.name, "_core", id, "_latency_cycles"), Value: float64(c.latency)},
			stats.KV{Name: stats.Name(ts.name, "_core", id, "_latency_samples"), Value: float64(c.latSamples)},
		)
		out = c.lat.AppendSnapshot(out)
	}
	for i := range ts.banks {
		b := &ts.banks[i]
		id := stats.Itoa(i)
		out = append(out,
			stats.KV{Name: stats.Name(ts.name, "_bank", id, "_enqueues"), Value: float64(b.enqueues)},
			stats.KV{Name: stats.Name(ts.name, "_bank", id, "_wait_cycles"), Value: float64(b.waitCycles)},
			stats.KV{Name: stats.Name(ts.name, "_bank", id, "_depth_hwm"), Value: float64(b.depthHWM)},
		)
		out = b.wait.AppendSnapshot(out)
	}
	return out
}

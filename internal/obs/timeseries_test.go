package obs

import (
	"strings"
	"testing"
)

// tsTestProfile mirrors the default NuRAPID timing: 8-cycle tag probe,
// 194-cycle memory round-trip.
func tsTestProfile() LatencyProfile {
	return LatencyProfile{TagCycles: 8, MemCycles: 194}
}

// wfDelta drives fn, flushes, and returns the waterfall totals gained.
func wfDelta(ts *TimeSeries, fn func()) ([NumWaterfall]int64, int64) {
	before, nBefore := ts.WaterfallTotals()
	fn()
	ts.Flush()
	after, nAfter := ts.WaterfallTotals()
	var d [NumWaterfall]int64
	for i := range d {
		d[i] = after[i] - before[i]
	}
	return d, nAfter - nBefore
}

// TestTimeSeriesWaterfallExactSum hand-traces three queued accesses
// through a NuRAPID-like port (4-cycle issue interval, 4 cycles per
// demotion link), feeds the events stamped as the organization would,
// and checks each access's five components individually and their
// exact sum against DoneAt minus the enqueue cycle.
func TestTimeSeriesWaterfallExactSum(t *testing.T) {
	ts := NewTimeSeries("ts", 1<<16)
	ts.SetProfile(tsTestProfile())

	// Access A: uncontended hit. start=0, done=21.
	d, n := wfDelta(ts, func() {
		ts.Emit(Enqueue(0, 0x100, 0, 0, false, 0))
		ts.Emit(Issue(0, 0, 0, 0))
		ts.Emit(Access(0, 0x100, false, 0))
		ts.Emit(Hit(0, 0, 21).Stamp(0, 0))
	})
	if want := [NumWaterfall]int64{0, 0, 8, 13, 0}; d != want || n != 1 {
		t.Fatalf("access A components = %v (%d attributed), want %v", d, n, want)
	}

	// Access B: arrives at 2, port busy until 4 from A's issue interval
	// (plain bank-busy, no movement debt). Observed hit latency 23 =
	// 2 wait + 21 group. A demotion link then extends the port to 12.
	d, n = wfDelta(ts, func() {
		ts.Emit(Enqueue(2, 0x200, 0, 0, false, 0))
		ts.Emit(Issue(2, 0, 0, 0))
		ts.Emit(Access(2, 0x200, false, 0))
		ts.Emit(Hit(2, 0, 23).Stamp(2, 0))
		ts.Emit(DemoteLink(2, 0, 0, 1))
	})
	if want := [NumWaterfall]int64{0, 2, 8, 13, 0}; d != want || n != 1 {
		t.Fatalf("access B components = %v (%d attributed), want %v", d, n, want)
	}

	// Access C: a miss on another bank that waited 4 cycles in the
	// queue, then finds the port extended to 12 by B's demotion chain —
	// 4 cycles of promotion ripple, none of plain busy.
	d, n = wfDelta(ts, func() {
		ts.Emit(Enqueue(4, 0x300, 1, 1, true, 2))
		ts.Emit(Issue(8, 1, 1, 4))
		ts.Emit(Access(8, 0x300, true, 1))
		ts.Emit(Miss(8, 0x300).Stamp(4, 4))
	})
	// orgLat = 4 wait + 8 tag + 194 memory = 206; done-enq = 210.
	if want := [NumWaterfall]int64{4, 0, 8, 194, 4}; d != want || n != 1 {
		t.Fatalf("access C components = %v (%d attributed), want %v", d, n, want)
	}

	// Aggregates: per-core, per-bank, and all-time fairness.
	cores := ts.CoreStats()
	if len(cores) != 2 || cores[0].Accesses != 2 || cores[0].Hits != 2 ||
		cores[1].Accesses != 1 || cores[1].Hits != 0 || cores[1].QueueWaitCycles != 4 {
		t.Fatalf("core stats = %+v", cores)
	}
	if cores[0].LatencySamples != 2 || cores[0].LatencyCycles != 21+23 {
		t.Fatalf("core 0 latency = %+v", cores[0])
	}
	if cores[1].LatencySamples != 1 || cores[1].LatencyCycles != 210 {
		t.Fatalf("core 1 latency = %+v", cores[1])
	}
	banks := ts.BankStats()
	if len(banks) != 2 || banks[0].Enqueues != 2 || banks[0].WaitCycles != 0 ||
		banks[1].Enqueues != 1 || banks[1].WaitCycles != 4 || banks[1].DepthHWM != 2 {
		t.Fatalf("bank stats = %+v", banks)
	}
	if got := ts.Fairness(); got != 0.9 { // (2+1)^2 / (2*(4+1))
		t.Fatalf("fairness = %v, want 0.9", got)
	}
	if ts.Unattributed() != 0 {
		t.Fatalf("unattributed = %d, want 0", ts.Unattributed())
	}
}

// TestTimeSeriesNoProfile pins the histogram-only mode (the trace
// analyzer's view): hits record observed latency, misses complete but
// stay unattributed, and no waterfall accumulates.
func TestTimeSeriesNoProfile(t *testing.T) {
	ts := NewTimeSeries("ts", 0)
	if ts.EpochCycles() != DefaultWindowCycles {
		t.Fatalf("default epoch = %d", ts.EpochCycles())
	}
	ts.Emit(Enqueue(0, 0x100, 0, 0, false, 0))
	ts.Emit(Issue(0, 0, 0, 0))
	ts.Emit(Access(0, 0x100, false, 0))
	ts.Emit(Hit(0, 0, 21))
	ts.Emit(Enqueue(30, 0x200, 0, 0, true, 0))
	ts.Emit(Issue(30, 0, 0, 0))
	ts.Emit(Access(30, 0x200, true, 0))
	ts.Emit(Miss(30, 0x200))
	ts.Flush()

	if _, n := ts.WaterfallTotals(); n != 0 {
		t.Fatalf("attributed %d accesses without a profile", n)
	}
	// No access gets a waterfall without a profile, hits included.
	if ts.Unattributed() != 2 {
		t.Fatalf("unattributed = %d, want 2", ts.Unattributed())
	}
	c := ts.CoreStats()[0]
	if c.Accesses != 2 || c.LatencySamples != 1 || c.LatencyCycles != 21 {
		t.Fatalf("core stats = %+v", c)
	}
}

// TestTimeSeriesInvalAttribution routes shoot-downs to the victim
// core's counter, not the writer's.
func TestTimeSeriesInvalAttribution(t *testing.T) {
	ts := NewTimeSeries("ts", 0)
	ts.Emit(Enqueue(0, 0x100, 0, 0, true, 0))
	ts.Emit(Issue(0, 0, 0, 0))
	ts.Emit(Access(0, 0x100, true, 0))
	ts.Emit(Hit(0, 0, 21))
	ts.Emit(Inval(21, 0x100, 1))
	ts.Emit(Inval(21, 0x100, 3))
	ts.Flush()
	cores := ts.CoreStats()
	if len(cores) != 4 || cores[0].Invals != 0 || cores[1].Invals != 1 || cores[3].Invals != 1 {
		t.Fatalf("inval attribution = %+v", cores)
	}
}

// TestTimeSeriesWindows exercises the sparse ring: empty epochs are
// skipped, backwards arrival cycles clamp to the newest window, and a
// full ring evicts oldest-first while the all-time aggregates keep
// every access.
func TestTimeSeriesWindows(t *testing.T) {
	ts := NewTimeSeries("ts", 16)
	hit := func(now int64, core int) {
		ts.Emit(Enqueue(now, 0x100, 0, core, false, 0))
		ts.Emit(Issue(now, 0, core, 0))
		ts.Emit(Access(now, 0x100, false, core))
		ts.Emit(Hit(now, 0, 21))
	}
	hit(0, 0)   // epoch 0
	hit(165, 1) // epoch 10: epochs 1..9 never materialize
	hit(160, 0) // backwards within the round-robin jitter: clamps to epoch 10
	ts.Flush()

	ws := ts.Windows()
	if len(ws) != 2 || ws[0].Epoch != 0 || ws[1].Epoch != 10 {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[1].Accesses != 2 || ws[1].PerCoreAccesses[0] != 1 || ws[1].PerCoreAccesses[1] != 1 {
		t.Fatalf("clamped window = %+v", ws[1])
	}
	if ws[1].Fairness != 1 { // both cores equally active in the window
		t.Fatalf("window fairness = %v, want 1", ws[1].Fairness)
	}
	// ws[0] predates core 1: its fairness over the full core set is
	// Jain over [1, 0] = 0.5.
	if ws[0].Fairness != 0.5 {
		t.Fatalf("closed window fairness = %v, want 0.5", ws[0].Fairness)
	}

	// Fill far past the ring: only the last 64 windows are retained, and
	// recycled slices carry no stale per-core counts.
	for i := int64(0); i < 100; i++ {
		hit(200+i*16, 0)
	}
	ts.Flush()
	ws = ts.Windows()
	if len(ws) != 64 {
		t.Fatalf("ring holds %d windows, want 64", len(ws))
	}
	for _, w := range ws {
		if w.Accesses != 1 || w.PerCoreAccesses[0] != 1 {
			t.Fatalf("recycled window carries stale counts: %+v", w)
		}
	}
	var total int64
	for _, c := range ts.CoreStats() {
		total += c.Accesses
	}
	if total != 103 {
		t.Fatalf("all-time accesses = %d, want 103", total)
	}
}

// TestTimeSeriesSnapshot spot-checks the snapshot key set.
func TestTimeSeriesSnapshot(t *testing.T) {
	ts := NewTimeSeries("ts", 0)
	ts.SetProfile(tsTestProfile())
	ts.Emit(Enqueue(0, 0x100, 2, 1, false, 0))
	ts.Emit(Issue(0, 2, 1, 0))
	ts.Emit(Access(0, 0x100, false, 1))
	ts.Emit(Hit(0, 0, 21))

	kvs := ts.Snapshot() // flushes the in-flight access
	byName := map[string]float64{}
	for _, kv := range kvs {
		byName[kv.Name] = kv.Value
	}
	for name, want := range map[string]float64{
		"ts_epoch_cycles":               float64(DefaultWindowCycles),
		"ts_windows_started":            1,
		"ts_wf_accesses":                1,
		"ts_wf_unattributed":            0,
		"ts_wf_queue_wait_cycles":       0,
		"ts_wf_tag_probe_cycles":        8,
		"ts_wf_data_access_cycles":      13,
		"ts_wf_promotion_ripple_cycles": 0,
		"ts_fairness_window":            1,
		"ts_core1_accesses":             1,
		"ts_core1_hits":                 1,
		"ts_bank2_enqueues":             1,
	} {
		got, ok := byName[name]
		if !ok || got != want {
			t.Errorf("snapshot %s = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, kv := range kvs {
		if !strings.HasPrefix(kv.Name, "ts_") {
			t.Errorf("snapshot key %q not ts_-prefixed", kv.Name)
		}
	}
}

// TestSamplerSingleCoreSnapshotUnchanged pins byte-compatibility: a
// stream must produce exactly the historical key set, also when a
// second core emits (the sampler aggregates over cores).
func TestSamplerSingleCoreSnapshotUnchanged(t *testing.T) {
	s := NewSampler("occ", 2)
	s.Emit(Access(0, 0x1, false, 0))
	s.Emit(Place(0, 0, 0))
	s.Emit(Access(1, 0x2, false, 1))
	want := []string{"occ_epoch_accesses", "occ_epoch_fill", "occ_samples", "occ_dgroup_0"}
	kvs := s.Snapshot()
	if len(kvs) != len(want) {
		t.Fatalf("snapshot has %d keys, want %d: %+v", len(kvs), len(want), kvs)
	}
	for i, kv := range kvs {
		if kv.Name != want[i] {
			t.Fatalf("snapshot key %d = %q, want %q", i, kv.Name, want[i])
		}
	}
}

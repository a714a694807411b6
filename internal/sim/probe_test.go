package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nurapid/internal/cmp"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// TestProbeObserverParallelDelivery checks the Runner's observer
// contract under a parallel pool: Observe calls never overlap (the
// Runner serializes them), every executed run produces exactly one
// start/finish pair, and finish events carry the metrics snapshot.
func TestProbeObserverParallelDelivery(t *testing.T) {
	var inFlight, overlaps int32
	type pair struct{ starts, finishes int }
	pairs := make(map[string]*pair)
	obsv := ObserverFunc(func(e RunEvent) {
		if atomic.AddInt32(&inFlight, 1) != 1 {
			atomic.AddInt32(&overlaps, 1)
		}
		key := e.App + "/" + e.Org
		p := pairs[key]
		if p == nil {
			p = &pair{}
			pairs[key] = p
		}
		switch e.Kind {
		case RunStart:
			p.starts++
			if e.Metrics != nil {
				t.Error("start event carries metrics")
			}
		case RunFinish:
			p.finishes++
			if len(e.Metrics) == 0 {
				t.Error("finish event missing metrics snapshot")
			}
		}
		atomic.AddInt32(&inFlight, -1)
	})

	r := smallRunner(t, WithWorkers(4), WithObserver(obsv))
	orgs := []Organization{Base(), NuRAPID(nurapid.DefaultConfig())}
	r.prefetch(runSet{apps: r.apps, orgs: orgs})
	// Re-running everything must observe nothing new (memoized).
	for _, app := range r.apps {
		for _, org := range orgs {
			r.Run(app, org)
		}
	}

	if overlaps != 0 {
		t.Fatalf("%d overlapping Observe calls; delivery must be serialized", overlaps)
	}
	if len(pairs) != len(r.apps)*len(orgs) {
		t.Fatalf("observed %d runs, want %d", len(pairs), len(r.apps)*len(orgs))
	}
	for key, p := range pairs {
		if p.starts != 1 || p.finishes != 1 {
			t.Fatalf("run %s observed %d starts / %d finishes, want 1/1", key, p.starts, p.finishes)
		}
	}
}

// memProbe wraps a TraceSink over an in-memory buffer so tests can
// compare raw trace bytes.
type memProbe struct {
	mu   sync.Mutex
	bufs map[string]*bytes.Buffer
}

func (m *memProbe) factory(app, org string) obs.Probe {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bufs == nil {
		m.bufs = make(map[string]*bytes.Buffer)
	}
	buf := &bytes.Buffer{}
	m.bufs[app+"/"+org] = buf
	return obs.NewTraceSink(buf)
}

// TestTraceDeterminismFixedSeed checks that two runners at the same
// seed emit byte-identical event traces, including under a parallel
// worker pool.
func TestTraceDeterminismFixedSeed(t *testing.T) {
	run := func(workers int) map[string]*bytes.Buffer {
		m := &memProbe{}
		r := smallRunner(t, WithWorkers(workers), WithProbe(m.factory))
		orgs := []Organization{NuRAPID(nurapid.DefaultConfig()), Base()}
		r.prefetch(runSet{apps: r.apps, orgs: orgs})
		if err := r.ProbeErr(); err != nil {
			t.Fatal(err)
		}
		return m.bufs
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("trace sets differ in size: %d vs %d", len(serial), len(parallel))
	}
	for key, a := range serial {
		b := parallel[key]
		if b == nil {
			t.Fatalf("run %s missing from parallel traces", key)
		}
		if a.Len() == 0 {
			t.Fatalf("run %s produced an empty trace", key)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("run %s traces differ between serial and parallel runners", key)
		}
	}
}

// TestCMPTraceDeterminism checks that fixed-seed CMP runs emit
// byte-identical queue-side traces across serial and parallel runners,
// that the stream carries the queue kinds (enqueue/issue) and coherence
// shoot-downs (inval), and pins the first enqueue line's exact bytes as
// the golden encoding for the CMP trace format.
func TestCMPTraceDeterminism(t *testing.T) {
	org := NuRAPID(nurapid.DefaultConfig())
	run := func(workers int) map[string]*bytes.Buffer {
		m := &memProbe{}
		r := smallRunner(t, WithWorkers(workers), WithProbe(m.factory),
			WithCores(2), WithSharing(cmp.Shared))
		r.prefetch(runSet{apps: r.apps, orgs: []Organization{org, Base()}, cmp: true})
		if err := r.ProbeErr(); err != nil {
			t.Fatal(err)
		}
		return m.bufs
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) == 0 || len(serial) != len(parallel) {
		t.Fatalf("trace sets differ in size: %d vs %d", len(serial), len(parallel))
	}
	var invals int64
	var mcfTrace []byte
	for key, a := range serial {
		b := parallel[key]
		if b == nil {
			t.Fatalf("run %s missing from parallel traces", key)
		}
		if a.Len() == 0 {
			t.Fatalf("run %s produced an empty trace", key)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("run %s traces differ between serial and parallel runners", key)
		}
		var enq, iss int64
		if err := obs.DecodeTrace(bytes.NewReader(a.Bytes()), func(e obs.Event) error {
			switch e.Kind {
			case obs.KindEnqueue:
				enq++
			case obs.KindIssue:
				iss++
			case obs.KindInval:
				invals++
			}
			return nil
		}); err != nil {
			t.Fatalf("run %s trace does not decode: %v", key, err)
		}
		if enq == 0 || enq != iss {
			t.Fatalf("run %s: %d enqueues / %d issues; every queued access must emit both", key, enq, iss)
		}
		if strings.HasPrefix(key, "mcf/") && strings.HasSuffix(key, org.Key) {
			mcfTrace = a.Bytes()
		}
	}
	if invals == 0 {
		t.Fatal("no shared run produced inval events")
	}
	if mcfTrace == nil {
		t.Fatal("mcf/nurapid CMP trace missing")
	}
	first := ""
	for _, line := range strings.Split(string(mcfTrace), "\n") {
		if strings.Contains(line, `"k":"enqueue"`) {
			first = line
			break
		}
	}
	const wantFirst = `{"k":"enqueue","t":0,"addr":4199552,"bank":1}`
	if first != wantFirst {
		t.Fatalf("first enqueue line\n got %s\nwant %s", first, wantFirst)
	}
}

// TestTraceMatchesCounters cross-checks the probe event stream against
// the cache's own counters: aggregating the trace with a Collector must
// reproduce the NuRAPID demotion/promotion/eviction/miss counts. A
// deliberately tiny cache forces demotion chains and evictions within
// the short test runs.
func TestTraceMatchesCounters(t *testing.T) {
	cfg := nurapid.DefaultConfig()
	cfg.CapacityBytes = 4 << 20 // 1 MB per d-group: fills within the run
	mcf, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf missing")
	}
	var mu sync.Mutex
	colls := make(map[string]*obs.Collector)
	r := NewRunner(WithInstructions(600_000), WithSeed(1), WithApps(mcf),
		WithProbe(func(app, org string) obs.Probe {
			mu.Lock()
			defer mu.Unlock()
			c := obs.NewCollector()
			colls[app] = c
			return c
		}))
	sawDemotions := false
	for _, app := range r.apps {
		res := r.Run(app, NuRAPID(cfg))
		c := colls[app.Name]
		if c == nil {
			t.Fatalf("no collector for %s", app.Name)
		}
		got := c.Counters()
		for _, name := range []string{"accesses", "misses", "evictions", "promotions", "demotions"} {
			if g, w := got.Get(name), res.L2Ctrs.Get(name); g != w {
				t.Errorf("%s: collector %s = %d, cache counter = %d", app.Name, name, g, w)
			}
		}
		if got.Get("demotions") > 0 {
			sawDemotions = true
		}
		if g, w := got.Get("hits"), res.L2Ctrs.Get("accesses")-res.L2Ctrs.Get("misses"); g != w {
			t.Errorf("%s: collector hits = %d, want accesses-misses = %d", app.Name, g, w)
		}
		if got.Get("placements") == 0 {
			t.Errorf("%s: no placements observed", app.Name)
		}
		// The harvested snapshot must surface the same counters under
		// the obs_ prefix.
		snap := res.Snapshot()
		found := false
		for _, kv := range snap {
			if kv.Name == "obs_accesses" && int64(kv.Value) == got.Get("accesses") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: obs_accesses missing from result snapshot", app.Name)
		}
	}
	if !sawDemotions {
		t.Error("no demotion chains exercised; shrink the cache or lengthen the run")
	}
}

// TestTraceProbeDisabledResultsIdentical checks the overhead contract's
// correctness half: probing must not change simulation results.
func TestTraceProbeDisabledResultsIdentical(t *testing.T) {
	bare := smallRunner(t)
	probed := smallRunner(t, WithProbe(func(app, org string) obs.Probe {
		return obs.Multi(obs.NewCollector(), obs.NewSampler("occupancy", 0))
	}))
	nilProbed := smallRunner(t, WithProbe(func(app, org string) obs.Probe { return nil }))
	for _, r := range []*Runner{bare, probed, nilProbed} {
		for _, app := range r.apps {
			r.Run(app, NuRAPID(nurapid.DefaultConfig()))
		}
	}
	for _, app := range bare.apps {
		org := NuRAPID(nurapid.DefaultConfig())
		a := bare.Run(app, org)
		b := probed.Run(app, org)
		c := nilProbed.Run(app, org)
		if a.CPU.Cycles != b.CPU.Cycles || a.CPU.Cycles != c.CPU.Cycles {
			t.Fatalf("%s: cycles differ with probing: %d / %d / %d",
				app.Name, a.CPU.Cycles, b.CPU.Cycles, c.CPU.Cycles)
		}
		if a.L2EnergyNJ != b.L2EnergyNJ || a.L2EnergyNJ != c.L2EnergyNJ ||
			a.ED != b.ED || a.ED != c.ED {
			t.Fatalf("%s: energy differs with probing", app.Name)
		}
		if len(a.ObsMetrics) != 0 || len(c.ObsMetrics) != 0 {
			t.Fatal("unprobed runs must carry no obs metrics")
		}
		if len(b.ObsMetrics) == 0 {
			t.Fatal("probed run lost its obs metrics")
		}
	}
}

// TestProbeModesRenderIdentical is the plain-test twin of the bench
// smoke's render_mismatches gates: Fig6 and the 2-core shared CMP
// experiment render the same bytes with no probe, with a factory that
// returns nil, and with Collector+Sampler probes on every run.
func TestProbeModesRenderIdentical(t *testing.T) {
	modes := []struct {
		name string
		opts []Option
	}{
		{"no-probe", nil},
		{"nil-factory", []Option{WithProbe(func(app, org string) obs.Probe { return nil })}},
		{"collector-sampler", []Option{WithProbe(func(app, org string) obs.Probe {
			return obs.Multi(obs.NewCollector(), obs.NewSampler("occupancy", 0))
		})}},
	}
	var want string
	for i, m := range modes {
		opts := append([]Option{WithInstructions(50_000), WithCores(2), WithSharing(cmp.Shared)}, m.opts...)
		r := smallRunner(t, opts...)
		var b strings.Builder
		for _, e := range []*Experiment{r.Fig6(), r.CMP()} {
			if err := e.Render(&b, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.ProbeErr(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = b.String()
		} else if got := b.String(); got != want {
			t.Fatalf("%s rendered different bytes than %s:\n%d bytes against %d\nfirst diff near %q",
				m.name, modes[0].name, len(got), len(want), firstDiff(want, got))
		}
	}
}

// TestTraceWithTraceWritesFiles checks the WithTrace plumbing end to
// end: one decodable JSONL file per executed run, and a latched
// ProbeErr when the directory cannot be written.
func TestTraceWithTraceWritesFiles(t *testing.T) {
	dir := t.TempDir()
	r := smallRunner(t, WithTrace(dir))
	app := r.apps[0]
	org := NuRAPID(nurapid.DefaultConfig())
	res := r.Run(app, org)
	if err := r.ProbeErr(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, app.Name+"__"+org.Key+".jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	coll := obs.NewCollector()
	if err := obs.DecodeTrace(f, func(e obs.Event) error { coll.Emit(e); return nil }); err != nil {
		t.Fatal(err)
	}
	if g, w := coll.Counters().Get("accesses"), res.L2Ctrs.Get("accesses"); g != w {
		t.Fatalf("trace accesses = %d, cache counter = %d", g, w)
	}
	// The sink's own snapshot must surface through the result.
	found := false
	for _, kv := range res.ObsMetrics {
		if kv.Name == "trace_events" && kv.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("trace_events missing from ObsMetrics")
	}

	bad := smallRunner(t, WithTrace(filepath.Join(dir, "missing", "nested")))
	bad.Run(bad.apps[0], Base())
	if bad.ProbeErr() == nil {
		t.Fatal("unwritable trace dir must latch ProbeErr")
	}
}

// TestTraceSweepVariantsProbed checks that the wire-delay sweep's
// variant runs go through the same probe plumbing as regular runs.
func TestTraceSweepVariantsProbed(t *testing.T) {
	var mu sync.Mutex
	orgs := map[string]bool{}
	r := smallRunner(t, WithProbe(func(app, org string) obs.Probe {
		mu.Lock()
		defer mu.Unlock()
		orgs[org] = true
		return obs.NewCollector()
	}))
	res := r.Run(r.apps[0], wireScaled(NuRAPID(nurapid.DefaultConfig()), "nurapid", 1.5))
	if len(res.ObsMetrics) == 0 {
		t.Fatal("sweep variant run lost its obs metrics")
	}
	if !orgs["nurapid-wire1.50x"] {
		t.Fatalf("probe factory saw orgs %v, want nurapid-wire1.50x", orgs)
	}
}

// TestTraceRunEventMetricsNames spot-checks the snapshot naming scheme
// delivered to observers: cpu_ and obs_ prefixes for nested metrics.
func TestTraceRunEventMetricsNames(t *testing.T) {
	var metrics []stats.KV
	r := smallRunner(t,
		WithProbe(func(app, org string) obs.Probe { return obs.NewCollector() }),
		WithObserver(ObserverFunc(func(e RunEvent) {
			if e.Kind == RunFinish && metrics == nil {
				metrics = e.Metrics
			}
		})))
	r.Run(r.apps[0], Base())
	want := map[string]bool{"energy_delay": false, "cpu_instructions": false, "obs_accesses": false}
	for _, kv := range metrics {
		if _, ok := want[kv.Name]; ok {
			want[kv.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metric %s missing from finish event (got %d metrics)", name, len(metrics))
		}
	}
}

// TestProbeMetricsFanOutOrder pins ObsMetrics to the run's composed
// probe, for a probed single-core run and a probed 2-core CMP run: each
// member's Snapshot in fan-out order — the factory's probe, then the
// trace sink, then, for CMP, the time-series registry.
func TestProbeMetricsFanOutOrder(t *testing.T) {
	for _, cmpRun := range []bool{false, true} {
		t.Run(fmt.Sprintf("cmp=%v", cmpRun), func(t *testing.T) {
			dir := t.TempDir()
			var coll *obs.Collector
			r := smallRunner(t, WithInstructions(30_000), WithCores(2), WithTrace(dir),
				WithProbe(func(app, org string) obs.Probe {
					coll = obs.NewCollector()
					return coll
				}))
			app, org := r.apps[0], NuRAPID(nurapid.DefaultConfig())
			label, got := org.Key, []stats.KV(nil)
			if cmpRun {
				label, got = r.cmpLabel(org), r.RunCMP(app, org).ObsMetrics
			} else {
				got = r.Run(app, org).ObsMetrics
			}
			if err := r.ProbeErr(); err != nil {
				t.Fatal(err)
			}
			trace, err := os.ReadFile(filepath.Join(dir, app.Name+"__"+label+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			want := append(coll.Snapshot(), stats.KV{Name: "trace_events", Value: float64(bytes.Count(trace, []byte("\n")))})
			if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
				t.Fatalf("ObsMetrics does not open with the collector's snapshot and then the trace sink's:\n got %v\nwant %v", got, want)
			}
			rest := got[len(want):]
			if cmpRun == (len(rest) == 0) {
				t.Fatalf("%d metrics after the trace sink's; want the time series' on a CMP run only", len(rest))
			}
			for _, kv := range rest {
				if !strings.HasPrefix(kv.Name, "ts_") {
					t.Fatalf("metric %s after the trace sink's is not the time series'", kv.Name)
				}
			}
		})
	}
}

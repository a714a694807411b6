package nurapid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	core "nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// benchSmokeFile is the committed record at the repo root. Its values
// are the baselines the relative gates compare against; `make
// bench-smoke` rewrites it.
const benchSmokeFile = "BENCH_smoke.json"

// The smoke's bounds. The two ratios apply to the committed record's
// value of the same metric.
const (
	// coreNsSlack lets the L2 access path's ns/access grow at most 10%.
	coreNsSlack = 1.10
	// cmpRateFloor lets CMP throughput drop at most 15% at any core
	// count: a whole-system run (cores, L1s, queue, shared L2) is
	// noisier than the isolated access path.
	cmpRateFloor = 0.85
	// probeBudget is the queued CMP path's disabled-probe overhead
	// budget; that path carries the Enqueue/Issue/Inval emission sites.
	probeBudget = 0.03
	// enabledProbeBudget is the same path's budget with Collector and
	// Sampler probes attached to every run: twice the median of 23
	// smoke runs on a 2-proc host, which read 0.11-0.39 (DESIGN §7).
	enabledProbeBudget = 0.50
	// efficiencyFloor is the replay pipeline's parallel efficiency at 4
	// workers, enforced only on hosts with at least 4 procs.
	efficiencyFloor = 0.5
)

// Gate directions, as BENCHMARK.json spells them.
const (
	lower  = "lower"
	higher = "higher"
)

// cmpBenchInstructions keeps one CMP point under about a second of
// simulated work while still reaching L2 steady state.
const cmpBenchInstructions = 200_000

// benchInstructions is the per-application run length of the obs and
// runner sections.
const benchInstructions = 400_000

// benchApps is the obs and runner sections' roster: three high-load
// applications spanning small and large working sets, plus one
// low-load control.
var benchApps = []string{"applu", "art", "mcf", "galgel", "gzip"}

// benchSweepWorkers are the replay pipeline sweep's worker counts.
var benchSweepWorkers = []int{1, 2, 4, 8, 16}

// benchRunnerWorkers builds the bench roster's runner on a pool of
// workers; extra options apply after the defaults.
func benchRunnerWorkers(tb testing.TB, workers int, extra ...sim.Option) *sim.Runner {
	tb.Helper()
	opts := []sim.Option{
		sim.WithInstructions(benchInstructions),
		sim.WithSeed(1),
		sim.WithApps(benchAppList(tb)...),
		sim.WithWorkers(workers),
	}
	return sim.NewRunner(append(opts, extra...)...)
}

// benchAppList resolves benchApps to their workload models.
func benchAppList(tb testing.TB) []workload.App {
	tb.Helper()
	var apps []workload.App
	for _, name := range benchApps {
		a, ok := workload.ByName(name)
		if !ok {
			tb.Fatalf("app %s missing", name)
		}
		apps = append(apps, a)
	}
	return apps
}

// benchGate is one gate's verdict as recorded: Status is "enforced",
// "skipped (<reason>)" or "FAILED".
type benchGate struct {
	Metric string  `json:"metric"`
	Got    float64 `json:"got"`
	Limit  float64 `json:"limit"`
	Better string  `json:"better"`
	Status string  `json:"status"`
}

// checkGate is the smoke's one gate: got passes when it is no worse
// than limit in the better direction.
func checkGate(metric string, got, limit float64, better string) benchGate {
	failed := got > limit
	if better == higher {
		failed = got < limit
	}
	g := benchGate{Metric: metric, Got: got, Limit: limit, Better: better, Status: "enforced"}
	if failed {
		g.Status = "FAILED"
	}
	return g
}

// skip records g as measured but not enforced.
func (g benchGate) skip(reason string) benchGate {
	g.Status = "skipped (" + reason + ")"
	return g
}

// vsBaseline gates got against ratio times the committed record's
// value; a metric the record lacks is skipped.
func vsBaseline(metric string, got, base, ratio float64, better string) benchGate {
	g := checkGate(metric, got, base*ratio, better)
	if base <= 0 {
		return g.skip("no committed baseline")
	}
	return g
}

// sweepEntryGate gates one sweep width's parallel efficiency. Only the
// 4-worker point is enforced, and only when the host has the procs to
// measure wall-clock parallelism; every other entry records why not.
func sweepEntryGate(workers int, eff float64, procs int) benchGate {
	g := checkGate(fmt.Sprintf("workers%d.efficiency", workers), eff, efficiencyFloor, higher)
	switch {
	case procs < 4:
		return g.skip(fmt.Sprintf("GOMAXPROCS=%d", procs))
	case workers != 4:
		return g.skip("gate applies at 4 workers")
	}
	return g
}

// benchSection is one measurement's raw numbers and gate verdicts.
type benchSection struct {
	Measurements map[string]float64 `json:"measurements"`
	Gates        []benchGate        `json:"gates"`
}

func (s *benchSection) set(metric string, v float64) {
	if s.Measurements == nil {
		s.Measurements = map[string]float64{}
	}
	s.Measurements[metric] = v
}

func (s *benchSection) gate(g benchGate) { s.Gates = append(s.Gates, g) }

// benchSmoke is the record in BENCH_smoke.json.
type benchSmoke struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Core       benchSection `json:"core"`
	CMP        benchSection `json:"cmp"`
	Obs        benchSection `json:"obs"`
	Runner     benchSection `json:"runner"`
}

// shouldWriteRunnerBench decides whether a fresh runner section may
// replace the one in the previous record. A host with fewer than 4
// procs cannot measure wall-clock parallelism, so its section must not
// clobber one measured with enough procs to enforce the efficiency
// gate; anything else (no previous record, unreadable record, a host
// at least as capable) overwrites. The rule reads the runner section's
// own gomaxprocs, because a kept section outlives the record's.
func shouldWriteRunnerBench(prev []byte, procs int) (bool, string) {
	if len(prev) == 0 {
		return true, "no previous record"
	}
	var old benchSmoke
	if err := json.Unmarshal(prev, &old); err != nil {
		return true, fmt.Sprintf("previous record unreadable (%v)", err)
	}
	if oldProcs := int(old.Runner.Measurements["gomaxprocs"]); procs < 4 && oldProcs >= 4 {
		return false, fmt.Sprintf(
			"refusing to overwrite a GOMAXPROCS=%d runner section (enforced gate) with a GOMAXPROCS=%d run that cannot measure parallelism",
			oldProcs, procs)
	}
	return true, "previous record superseded"
}

// TestBenchSmoke measures the repository's four perf contracts, gates
// each against its bound, and writes one record:
//
//   - core: the headline steady-state NuRAPID access cost
//     (BenchmarkCoreNuRAPID's configuration) and its zero-allocation
//     contract;
//   - cmp: the CMP front end's shared-L2 accesses per host second at
//     1/2/4/8 private-stream cores;
//   - obs: serial Fig6 and the 2-core shared CMP experiment, probe-free
//     vs nil-probe factory vs full probes, with byte-identical renders;
//   - runner: the sharded trace-gen + chunked-replay pipeline at
//     1/2/4/8/16 workers (identical fingerprints at every width) and
//     serial vs parallel Fig6. The serial Fig6 time is the obs
//     section's probe-free measurement.
//
// Every gate's verdict is recorded; a FAILED one fails the test after
// the record is written. It only runs when BENCH_SMOKE_JSON names the
// output file (make bench-smoke / CI), so plain `go test ./...` stays
// timing-free.
func TestBenchSmoke(t *testing.T) {
	out := os.Getenv("BENCH_SMOKE_JSON")
	if out == "" {
		t.Skip("set BENCH_SMOKE_JSON=<path> to run the bench smoke")
	}
	var base benchSmoke
	if data, err := os.ReadFile(benchSmokeFile); err == nil {
		if err := json.Unmarshal(data, &base); err != nil {
			t.Fatalf("committed %s is corrupt: %v", benchSmokeFile, err)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	rec := benchSmoke{
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Core:       coreSmoke(base.Core),
		CMP:        cmpSmoke(t, base.CMP),
	}
	var fig6Serial time.Duration
	var fig6Out string
	rec.Obs, fig6Serial, fig6Out = obsSmoke(t)
	rec.Runner = runnerSmoke(t, procs, fig6Serial, fig6Out)

	for _, sec := range []struct {
		name string
		s    benchSection
	}{{"core", rec.Core}, {"cmp", rec.CMP}, {"obs", rec.Obs}, {"runner", rec.Runner}} {
		for _, g := range sec.s.Gates {
			msg := fmt.Sprintf("%s %s = %.4g (limit %.4g, %s is better): %s",
				sec.name, g.Metric, g.Got, g.Limit, g.Better, g.Status)
			if g.Status == "FAILED" {
				t.Error(msg)
			} else {
				t.Log(msg)
			}
		}
	}

	prev, err := os.ReadFile(out)
	if err != nil {
		prev = nil // no previous record (or unreadable): write fresh
	}
	if ok, reason := shouldWriteRunnerBench(prev, procs); !ok {
		var old benchSmoke
		if err := json.Unmarshal(prev, &old); err != nil {
			t.Fatal(err)
		}
		rec.Runner = old.Runner
		t.Logf("keeping the previous runner section: %s", reason)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// coreSmoke measures the headline steady-state NuRAPID access cost as
// the best of 8 replays of the core bench stream (the minimum is the
// least noisy estimator on a shared machine), plus the allocations per
// replayed batch.
func coreSmoke(base benchSection) benchSection {
	cfg := nurapidBenchCfg(4, core.NextFastest, core.RandomDistance, core.DistanceAssociative)
	c := core.MustNew(cfg, cacti.Default(), memsys.NewMemory(cfg.BlockBytes))
	reqs := coreBenchStream(cfg.BlockBytes, numSetsOf(cfg))
	now := replayStream(c, 0, reqs) // reach steady state
	allocs := testing.AllocsPerRun(3, func() { now = replayStream(c, now, reqs) })
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 8; i++ {
		start := time.Now()
		now = replayStream(c, now, reqs)
		best = min(best, time.Since(start))
	}
	var s benchSection
	ns := float64(best) / coreBenchAccesses
	s.set("ns_per_access", ns)
	s.set("allocs_per_batch", allocs)
	s.gate(vsBaseline("ns_per_access", ns, base.Measurements["ns_per_access"], coreNsSlack, lower))
	s.gate(checkGate("allocs_per_batch", allocs, 0, lower))
	return s
}

// cmpSmoke measures mcf on a default NuRAPID shared L2 behind 1, 2, 4
// and 8 private-stream cores, best of 3 runs per core count. Each run
// needs a fresh system (the L2 and cores carry state); only Run is
// timed.
func cmpSmoke(t *testing.T, base benchSection) benchSection {
	app, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("app mcf missing")
	}
	var s benchSection
	for _, cores := range []int{1, 2, 4, 8} {
		var res cmp.Result
		best := time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			l2 := core.MustNew(core.DefaultConfig(), cacti.Default(), memsys.NewMemory(core.DefaultConfig().BlockBytes))
			sys, err := cmp.New(l2, cmp.Config{Cores: cores, Sharing: cmp.Private})
			if err != nil {
				t.Fatal(err)
			}
			srcs, err := sys.Sources(app, 1)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res = sys.Run(srcs, cmpBenchInstructions)
			best = min(best, time.Since(start))
		}
		var accesses int64
		for _, pc := range res.PerCore {
			accesses += pc.Accesses
		}
		p := fmt.Sprintf("cores%d.", cores)
		rate := float64(accesses) / best.Seconds()
		s.set(p+"l2_accesses", float64(accesses))
		s.set(p+"wall_ns", float64(best))
		s.set(p+"l2_accesses_per_sec", rate)
		s.set(p+"aggregate_ipc", res.AggregateIPC)
		s.set(p+"fairness", res.Fairness)
		s.gate(vsBaseline(p+"l2_accesses_per_sec", rate, base.Measurements[p+"l2_accesses_per_sec"], cmpRateFloor, higher))
	}
	return s
}

// timeExp runs exp on a fresh bench-roster runner (2 shared-stream
// cores for the CMP experiment; single-core experiments ignore both)
// and returns its wall time and rendered text.
func timeExp(t *testing.T, workers int, exp func(*sim.Runner) *sim.Experiment, extra ...sim.Option) (time.Duration, string) {
	t.Helper()
	r := benchRunnerWorkers(t, workers, append([]sim.Option{sim.WithCores(2), sim.WithSharing(cmp.Shared)}, extra...)...)
	start := time.Now()
	e := exp(r)
	elapsed := time.Since(start)
	var buf bytes.Buffer
	if err := e.Render(&buf, false); err != nil {
		t.Fatal(err)
	}
	if err := r.ProbeErr(); err != nil {
		t.Fatal(err)
	}
	return elapsed, buf.String()
}

// probeModes times exp serially (probe cost must not hide in idle
// cores) in three modes: probe-free, a nil-returning probe factory
// (the disabled fast path the budget covers) and full
// Collector+Sampler probes. The modes are interleaved round by round,
// so clock drift and throttling hit them evenly. It returns each
// mode's best of 3 wall times, how many renders differed from the
// first probe-free one, and that render.
func probeModes(t *testing.T, exp func(*sim.Runner) *sim.Experiment) (best [3]time.Duration, mismatches int, out string) {
	modes := [3][]sim.Option{
		nil,
		{sim.WithProbe(func(app, org string) obs.Probe { return nil })},
		{sim.WithProbe(func(app, org string) obs.Probe {
			return obs.Multi(obs.NewCollector(), obs.NewSampler("occupancy", 0))
		})},
	}
	best = [3]time.Duration{math.MaxInt64, math.MaxInt64, math.MaxInt64}
	for round := 0; round < 3; round++ {
		for m, extra := range modes {
			d, o := timeExp(t, 1, exp, extra...)
			best[m] = min(best[m], d)
			if round == 0 && m == 0 {
				out = o
			} else if o != out {
				mismatches++
			}
		}
	}
	return best, mismatches, out
}

// obsSmoke measures the probe overhead on serial Fig6 and on the 2-core
// shared CMP experiment, and returns the probe-free Fig6 time and
// render for the runner section.
func obsSmoke(t *testing.T) (benchSection, time.Duration, string) {
	var s benchSection
	fig6, fig6Diff, fig6Out := probeModes(t, (*sim.Runner).Fig6)
	cmp2, cmp2Diff, _ := probeModes(t, (*sim.Runner).CMP)
	for _, e := range []struct {
		name  string
		best  [3]time.Duration
		diffs int
	}{{"fig6", fig6, fig6Diff}, {"cmp2", cmp2, cmp2Diff}} {
		p := e.name + "."
		s.set(p+"baseline_ns", float64(e.best[0]))
		s.set(p+"nil_probe_ns", float64(e.best[1]))
		s.set(p+"probed_ns", float64(e.best[2]))
		s.set(p+"disabled_overhead", float64(e.best[1])/float64(e.best[0])-1)
		s.set(p+"enabled_overhead", float64(e.best[2])/float64(e.best[0])-1)
		s.gate(checkGate(p+"render_mismatches", float64(e.diffs), 0, lower))
	}
	s.gate(checkGate("cmp2.disabled_overhead", s.Measurements["cmp2.disabled_overhead"], probeBudget, lower))
	s.gate(checkGate("cmp2.enabled_overhead", s.Measurements["cmp2.enabled_overhead"], enabledProbeBudget, lower))
	return s, fig6[0], fig6Out
}

// runnerSmoke measures the replay pipeline and the experiment runner:
// a serial phase split (trace generation vs batched NuRAPID replay),
// the pipeline over every (app, org) job at each sweep width, and
// parallel Fig6 against the given serial time and render.
func runnerSmoke(t *testing.T, procs int, fig6Serial time.Duration, fig6Out string) benchSection {
	var s benchSection
	s.set("gomaxprocs", float64(procs))
	apps := benchAppList(t)
	model := cacti.Default()
	nrOrg := sim.NuRAPID(core.DefaultConfig())
	var traceGen, replay time.Duration
	var traceReqs int
	for _, app := range apps {
		start := time.Now()
		reqs := sim.ExtractTrace(app, 1, benchInstructions)
		traceGen += time.Since(start)
		traceReqs += len(reqs)
		start = time.Now()
		sim.ReplayTrace(model, nrOrg, sim.Trace{Reqs: reqs})
		replay += time.Since(start)
	}
	s.set("trace_requests", float64(traceReqs))
	s.set("trace_gen_ns", float64(traceGen))
	s.set("replay_ns", float64(replay))

	// One organization per family, so the job matrix gives the pool
	// real width.
	orgs := []sim.Organization{sim.Base(), sim.Ideal(), sim.DNUCA(nuca.DefaultConfig()), nrOrg}
	var jobs []sim.ReplayJob
	for _, app := range apps {
		for _, org := range orgs {
			jobs = append(jobs, sim.ReplayJob{App: app, Seed: 1, N: benchInstructions, Org: org})
		}
	}
	var serialWall time.Duration
	var serialFPs []uint64
	fpDiffs := 0
	for _, w := range benchSweepWorkers {
		start := time.Now()
		results := sim.ReplayAll(model, jobs, sim.ReplayOptions{Workers: w})
		wall := time.Since(start)
		if w == 1 {
			serialWall = wall
		}
		for i, r := range results {
			if w == 1 {
				serialFPs = append(serialFPs, r.Fingerprint())
			} else if r.Fingerprint() != serialFPs[i] {
				fpDiffs++
			}
		}
		speedup := float64(serialWall) / float64(wall)
		p := fmt.Sprintf("workers%d.", w)
		s.set(p+"wall_ns", float64(wall))
		s.set(p+"speedup", speedup)
		s.set(p+"efficiency", speedup/float64(w))
		s.gate(sweepEntryGate(w, speedup/float64(w), procs))
	}
	s.gate(checkGate("fingerprint_mismatches", float64(fpDiffs), 0, lower))

	s.set("fig6_serial_ns", float64(fig6Serial))
	if procs == 1 {
		s.gate(checkGate("fig6_parallel_render_mismatches", 0, 0, lower).skip("GOMAXPROCS=1"))
		return s
	}
	d, o := timeExp(t, procs, (*sim.Runner).Fig6)
	s.set("fig6_parallel_ns", float64(d))
	s.set("fig6_speedup", float64(fig6Serial)/float64(d))
	diff := 0
	if o != fig6Out {
		diff = 1
	}
	s.gate(checkGate("fig6_parallel_render_mismatches", float64(diff), 0, lower))
	return s
}

// TestCheckGate pins every bound the smoke enforces: each gate passes
// on a good measurement, fails on a doctored one, and a gate the host
// cannot measure is skipped with its reason.
func TestCheckGate(t *testing.T) {
	cases := []struct {
		name string
		g    benchGate
		want string
	}{
		{"core-ns-good", vsBaseline("ns_per_access", 75, 68.4, coreNsSlack, lower), "enforced"},
		{"core-ns-doctored", vsBaseline("ns_per_access", 76, 68.4, coreNsSlack, lower), "FAILED"},
		{"core-ns-no-baseline", vsBaseline("ns_per_access", 76, 0, coreNsSlack, lower), "skipped (no committed baseline)"},
		{"core-allocs-good", checkGate("allocs_per_batch", 0, 0, lower), "enforced"},
		{"core-allocs-doctored", checkGate("allocs_per_batch", 1, 0, lower), "FAILED"},
		{"cmp-rate-good", vsBaseline("cores4.l2_accesses_per_sec", 341e3, 400e3, cmpRateFloor, higher), "enforced"},
		{"cmp-rate-doctored", vsBaseline("cores4.l2_accesses_per_sec", 339e3, 400e3, cmpRateFloor, higher), "FAILED"},
		{"cmp2-overhead-good", checkGate("cmp2.disabled_overhead", 0.03, probeBudget, lower), "enforced"},
		{"cmp2-overhead-doctored", checkGate("cmp2.disabled_overhead", 0.031, probeBudget, lower), "FAILED"},
		{"cmp2-enabled-overhead-good", checkGate("cmp2.enabled_overhead", 0.50, enabledProbeBudget, lower), "enforced"},
		{"cmp2-enabled-overhead-doctored", checkGate("cmp2.enabled_overhead", 0.51, enabledProbeBudget, lower), "FAILED"},
		{"efficiency-good", sweepEntryGate(4, 0.5, 4), "enforced"},
		{"efficiency-doctored", sweepEntryGate(4, 0.49, 8), "FAILED"},
		{"efficiency-few-procs", sweepEntryGate(4, 0.49, 2), "skipped (GOMAXPROCS=2)"},
		{"identity-good", checkGate("fig6.render_mismatches", 0, 0, lower), "enforced"},
		{"identity-doctored", checkGate("fig6.render_mismatches", 1, 0, lower), "FAILED"},
	}
	for _, tc := range cases {
		if tc.g.Status != tc.want {
			t.Errorf("%s: %s = %v (limit %v) has status %q, want %q",
				tc.name, tc.g.Metric, tc.g.Got, tc.g.Limit, tc.g.Status, tc.want)
		}
	}
}

// TestSweepEntryGateStamp pins the per-width gate stamps: on a host
// that cannot measure parallelism every entry says so (naming the proc
// count), and on a capable host exactly the 4-worker point is enforced.
func TestSweepEntryGateStamp(t *testing.T) {
	for _, w := range benchSweepWorkers {
		if got := sweepEntryGate(w, 1, 1).Status; got != "skipped (GOMAXPROCS=1)" {
			t.Errorf("gate(workers=%d, procs=1) = %q", w, got)
		}
	}
	if got := sweepEntryGate(4, 1, 8).Status; got != "enforced" {
		t.Errorf("gate(workers=4, procs=8) = %q, want enforced", got)
	}
	for _, w := range []int{1, 2, 8, 16} {
		if got := sweepEntryGate(w, 1, 8).Status; !strings.HasPrefix(got, "skipped") {
			t.Errorf("gate(workers=%d, procs=8) = %q; only the 4-worker point gates", w, got)
		}
	}
}

// TestShouldWriteRunnerBench pins the overwrite policy: a low-proc run
// must never replace a runner section whose efficiency gate was
// enforced, while missing, unreadable, or same-capability records are
// fair game. The record's top-level gomaxprocs does not enter into it.
func TestShouldWriteRunnerBench(t *testing.T) {
	record := func(top, runner int) []byte {
		data, err := json.Marshal(benchSmoke{GOMAXPROCS: top,
			Runner: benchSection{Measurements: map[string]float64{"gomaxprocs": float64(runner)}}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name  string
		prev  []byte
		procs int
		want  bool
	}{
		{"no-previous-record", nil, 1, true},
		{"unreadable-record", []byte("{not json"), 1, true},
		{"one-proc-over-one-proc", record(1, 1), 1, true},
		{"one-proc-over-enforced", record(16, 16), 1, false},
		{"two-proc-over-enforced", record(4, 4), 2, false},
		{"four-proc-over-enforced", record(16, 16), 4, true},
		{"many-proc-over-one-proc", record(1, 1), 16, true},
		{"kept-enforced-section-in-one-proc-record", record(1, 16), 2, false},
		{"one-proc-section-in-many-proc-record", record(16, 1), 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, reason := shouldWriteRunnerBench(tc.prev, tc.procs)
			if got != tc.want {
				t.Fatalf("shouldWriteRunnerBench(procs=%d) = %v (%s), want %v",
					tc.procs, got, reason, tc.want)
			}
			if reason == "" {
				t.Fatal("decision carries no reason")
			}
		})
	}
}

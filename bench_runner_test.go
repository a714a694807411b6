package nurapid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// runnerSweepEntry is one point of the scaling curve: the trace-gen +
// replay pipeline's wall time at a worker count, with speedup and
// parallel efficiency (speedup / workers) relative to the 1-worker
// pass. One entry per worker count — the half-recorded pre-sweep schema
// pinned workers to 1 and omitted the parallel pass entirely, so the
// regression gate could not see scaling regressions at all.
type runnerSweepEntry struct {
	Workers    int     `json:"workers"`
	WallNS     int64   `json:"wall_ns"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// Gate stamps the entry with its own gating status, so a recorded
	// curve can never be misread as an enforced one: a single-proc host
	// records real wall times but meaningless speedups, and before the
	// stamp a reader had to cross-reference the top-level EfficiencyGate
	// to know which points the gate actually saw.
	Gate string `json:"gate,omitempty"`
}

// sweepEntryGate renders one sweep entry's gating status: only the
// 4-worker point is ever enforced, and only when the host has at least 4
// procs to measure it with.
func sweepEntryGate(workers, procs int) string {
	if procs < 4 {
		return fmt.Sprintf("skipped (GOMAXPROCS=%d)", procs)
	}
	if workers == 4 {
		return "enforced (efficiency >= 0.5)"
	}
	return "not enforced (gate applies at 4 workers)"
}

// shouldWriteRunnerBench decides whether a fresh runner-bench record may
// replace the previous BENCH_runner.json contents. A host with fewer
// than 4 procs cannot measure wall-clock parallelism, so its record must
// not clobber one measured with enough procs to enforce the efficiency
// gate; anything else (no previous record, unreadable record, a host at
// least as capable) overwrites.
func shouldWriteRunnerBench(prev []byte, procs int) (bool, string) {
	if len(prev) == 0 {
		return true, "no previous record"
	}
	var old runnerBench
	if err := json.Unmarshal(prev, &old); err != nil {
		return true, fmt.Sprintf("previous record unreadable (%v)", err)
	}
	if procs < 4 && old.GOMAXPROCS >= 4 {
		return false, fmt.Sprintf(
			"refusing to overwrite a GOMAXPROCS=%d record (enforced gate) with a GOMAXPROCS=%d run that cannot measure parallelism",
			old.GOMAXPROCS, procs)
	}
	return true, "previous record superseded"
}

// runnerBench is the record the bench smoke writes to BENCH_runner.json
// so the runner's perf trajectory is tracked across PRs.
//
// TraceGenNS and ReplayNS split one serial pass over the bench roster
// into its two phases: synthesizing each application's L2-visible
// request stream and replaying those streams through NuRAPID's batched
// path. Sweep records the sharded-generation + chunked-replay
// pipeline's wall time at 1/2/4/8/16 workers over the full (app, org)
// job matrix; EfficiencyGate says whether the >=0.5-efficiency-at-4-
// workers gate was enforced or why it was skipped (a single-proc host
// cannot measure wall-clock parallelism, and recording a fake sub-1.0
// "speedup" is exactly the bug an earlier revision of this bench had).
type runnerBench struct {
	Experiment     string             `json:"experiment"`
	Apps           int                `json:"apps"`
	ReplayOrgs     int                `json:"replay_orgs"`
	Instructions   int64              `json:"instructions_per_run"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	TraceRequests  int64              `json:"trace_requests"`
	TraceGenNS     int64              `json:"trace_gen_ns"`
	ReplayNS       int64              `json:"replay_ns"`
	Sweep          []runnerSweepEntry `json:"sweep"`
	EfficiencyGate string             `json:"efficiency_gate"`
	Fig6SerialNS   int64              `json:"fig6_serial_ns"`
	// Fig6ParallelNS and Fig6Speedup cover the full-system experiment
	// runner (Prefetch fan-out) and are only recorded when more than
	// one proc is actually available.
	Fig6ParallelNS int64   `json:"fig6_parallel_ns,omitempty"`
	Fig6Speedup    float64 `json:"fig6_speedup,omitempty"`
}

// benchSweepWorkers is the recorded scaling curve's worker counts.
var benchSweepWorkers = []int{1, 2, 4, 8, 16}

// benchReplayOrgs is the organization set each app's trace is replayed
// through in the sweep: one per family, so the job matrix (apps x
// orgs) gives the pool real width.
func benchReplayOrgs() []sim.Organization {
	return []sim.Organization{
		sim.Base(),
		sim.Ideal(),
		sim.DNUCA(nuca.DefaultConfig()),
		sim.NuRAPID(nurapid.DefaultConfig()),
	}
}

// TestBenchRunnerSmoke measures the parallel replay pipeline and the
// experiment runner, and records BENCH_runner.json:
//
//  1. a serial phase split (trace generation vs batched replay) for an
//     honest single-core baseline;
//  2. the sharded trace-gen + chunked-replay pipeline at 1/2/4/8/16
//     workers over the (app, org) job matrix — verifying every worker
//     count's fingerprints are byte-identical to the serial pass, and
//     gating on >=0.5 parallel efficiency at 4 workers when the host
//     has at least 4 procs;
//  3. serial-vs-parallel Fig6 regeneration (byte-identity always;
//     wall-clock comparison only when more than one proc exists).
//
// It only runs when BENCH_RUNNER_JSON names the output file (make
// bench-runner / CI), so plain `go test ./...` stays timing-free.
func TestBenchRunnerSmoke(t *testing.T) {
	out := os.Getenv("BENCH_RUNNER_JSON")
	if out == "" {
		t.Skip("set BENCH_RUNNER_JSON=<path> to run the runner bench smoke")
	}

	var apps []workload.App
	for _, name := range benchApps {
		a, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		apps = append(apps, a)
	}
	procs := runtime.GOMAXPROCS(0)
	model := cacti.Default()
	orgs := benchReplayOrgs()

	// Phase split: trace generation vs batched replay, both serial.
	nrOrg := sim.NuRAPID(nurapid.DefaultConfig())
	var traceGen, replay time.Duration
	var traceReqs int64
	for _, app := range apps {
		start := time.Now()
		reqs := sim.ExtractTrace(app, 1, int(benchInstructions))
		traceGen += time.Since(start)
		traceReqs += int64(len(reqs))
		start = time.Now()
		sim.Replay(model, nrOrg, reqs)
		replay += time.Since(start)
	}

	// The scaling sweep: every app's stream through every organization,
	// sharded generation + chunked replay on a bounded pool.
	var jobs []sim.ReplayJob
	for _, app := range apps {
		for _, org := range orgs {
			jobs = append(jobs, sim.ReplayJob{App: app, Seed: 1, N: int(benchInstructions), Org: org})
		}
	}
	timePipeline := func(w int) (time.Duration, []uint64) {
		start := time.Now()
		results := sim.ReplayAll(model, jobs, sim.ReplayOptions{Workers: w})
		elapsed := time.Since(start)
		fps := make([]uint64, len(results))
		for i, r := range results {
			fps[i] = r.Fingerprint()
		}
		return elapsed, fps
	}

	serialWall, serialFPs := timePipeline(1)
	sweep := []runnerSweepEntry{{Workers: 1, WallNS: serialWall.Nanoseconds(), Speedup: 1, Efficiency: 1,
		Gate: sweepEntryGate(1, procs)}}
	effAt := map[int]float64{1: 1}
	for _, w := range benchSweepWorkers[1:] {
		wall, fps := timePipeline(w)
		for i := range fps {
			if fps[i] != serialFPs[i] {
				t.Fatalf("workers=%d: job %d fingerprint %#016x differs from serial %#016x",
					w, i, fps[i], serialFPs[i])
			}
		}
		speedup := float64(serialWall) / float64(wall)
		entry := runnerSweepEntry{
			Workers:    w,
			WallNS:     wall.Nanoseconds(),
			Speedup:    speedup,
			Efficiency: speedup / float64(w),
			Gate:       sweepEntryGate(w, procs),
		}
		sweep = append(sweep, entry)
		effAt[w] = entry.Efficiency
		t.Logf("pipeline %2d workers: %v (%.2fx, efficiency %.2f)", w, wall, speedup, entry.Efficiency)
	}

	gate := fmt.Sprintf("skipped: gomaxprocs %d < 4, wall-clock parallelism unmeasurable", procs)
	if procs >= 4 {
		gate = "enforced: efficiency at 4 workers >= 0.5"
		if effAt[4] < 0.5 {
			t.Errorf("parallel efficiency at 4 workers = %.2f, want >= 0.5 — the pipeline is not scaling", effAt[4])
			gate = fmt.Sprintf("FAILED: efficiency %.2f at 4 workers < 0.5", effAt[4])
		}
	}

	// The full-system experiment runner: serial vs worker-per-proc
	// Fig6, byte-identity always enforced.
	timeFig6 := func(w int) (time.Duration, string) {
		r := sim.NewRunner(
			sim.WithInstructions(benchInstructions),
			sim.WithSeed(1),
			sim.WithApps(apps...),
			sim.WithWorkers(w),
		)
		start := time.Now()
		e := r.Fig6()
		elapsed := time.Since(start)
		var buf bytes.Buffer
		if err := e.Render(&buf, false); err != nil {
			t.Fatal(err)
		}
		return elapsed, buf.String()
	}
	serialFig6, serialBytes := timeFig6(1)

	rec := runnerBench{
		Experiment:     "replay-pipeline+fig6",
		Apps:           len(apps),
		ReplayOrgs:     len(orgs),
		Instructions:   benchInstructions,
		GOMAXPROCS:     procs,
		TraceRequests:  traceReqs,
		TraceGenNS:     traceGen.Nanoseconds(),
		ReplayNS:       replay.Nanoseconds(),
		Sweep:          sweep,
		EfficiencyGate: gate,
		Fig6SerialNS:   serialFig6.Nanoseconds(),
	}
	if procs > 1 {
		parallel, parallelBytes := timeFig6(procs)
		if serialBytes != parallelBytes {
			t.Fatalf("serial and parallel Fig6 rendered different bytes (%d vs %d)",
				len(serialBytes), len(parallelBytes))
		}
		rec.Fig6ParallelNS = parallel.Nanoseconds()
		rec.Fig6Speedup = float64(serialFig6) / float64(parallel)
	}

	prev, readErr := os.ReadFile(out)
	if readErr != nil {
		prev = nil // no previous record (or unreadable): write fresh
	}
	if ok, reason := shouldWriteRunnerBench(prev, procs); !ok {
		t.Logf("keeping existing %s: %s", out, reason)
		return
	}
	writeBenchRecord(t, out, rec)
	t.Logf("pipeline serial %v over %d jobs; trace-gen %v, replay %v; fig6 serial %v; gate: %s",
		serialWall, len(jobs), traceGen, replay, serialFig6, gate)
}

package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/workload"
)

// sliceSource replays a fixed instruction sequence then exhausts — the
// bounded-source shape (trace files, workload.Limit) whose trailing
// think time ExtractTrace used to discard.
type sliceSource struct {
	instrs []workload.Instr
	pos    int
}

func (s *sliceSource) Next() (workload.Instr, bool) {
	if s.pos >= len(s.instrs) {
		return workload.Instr{}, false
	}
	in := s.instrs[s.pos]
	s.pos++
	return in, true
}

// TestExtractTraceTailGap pins the tail-gap fix: a source ending in
// non-memory instructions must surface the trailing think time and the
// full instruction count instead of silently dropping both.
func TestExtractTraceTailGap(t *testing.T) {
	alu := workload.Instr{Kind: workload.ALU}
	src := &sliceSource{instrs: []workload.Instr{
		alu,
		{Kind: workload.Load, Addr: 0x1000},
		alu, alu,
		{Kind: workload.Store, Addr: 0x2000},
		alu, alu, alu,
	}}
	tr := ExtractTraceSource(src, 100)
	if len(tr.Reqs) != 2 {
		t.Fatalf("extracted %d requests, want 2", len(tr.Reqs))
	}
	if tr.Reqs[0].Gap != 1 || tr.Reqs[0].Write {
		t.Fatalf("request 0 = %+v, want Load with Gap 1", tr.Reqs[0])
	}
	if tr.Reqs[1].Gap != 2 || !tr.Reqs[1].Write {
		t.Fatalf("request 1 = %+v, want Store with Gap 2", tr.Reqs[1])
	}
	if tr.TailGap != 3 {
		t.Fatalf("TailGap = %d, want 3 (the trailing ALU run)", tr.TailGap)
	}
	if tr.Instructions != 8 {
		t.Fatalf("Instructions = %d, want 8", tr.Instructions)
	}

	// Budget-bounded extraction stops at a memory operation, so the
	// tail gap is zero and the unconsumed suffix is not accounted.
	src2 := &sliceSource{instrs: src.instrs}
	tr2 := ExtractTraceSource(src2, 1)
	if len(tr2.Reqs) != 1 || tr2.TailGap != 0 || tr2.Instructions != 2 {
		t.Fatalf("budgeted extraction = %d reqs, tail %d, %d instructions; want 1, 0, 2",
			len(tr2.Reqs), tr2.TailGap, tr2.Instructions)
	}
}

// TestReplayTraceAccountsTailGap pins that the trailing think time
// reaches FinalClock (and therefore the fingerprint) through
// ReplayTrace.
func TestReplayTraceAccountsTailGap(t *testing.T) {
	app, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload model missing")
	}
	model := cacti.Default()
	org := NuRAPID(nurapid.DefaultConfig())
	tr := ExtractTraceSource(workload.MustNewGenerator(app, 1), 2000)
	if tr.TailGap != 0 {
		t.Fatalf("generator-backed trace has TailGap %d, want 0", tr.TailGap)
	}
	plain := ReplayTrace(model, org, tr)
	tailed := tr
	tailed.TailGap = 97
	withTail := ReplayTrace(model, org, tailed)
	if got, want := withTail.FinalClock, plain.FinalClock+97; got != want {
		t.Fatalf("FinalClock with tail = %d, want %d", got, want)
	}
	if withTail.Fingerprint() == plain.Fingerprint() {
		t.Fatal("tail gap did not reach the fingerprint")
	}
}

// parReplayJobs is the job matrix the determinism tests shard: two
// seeded app streams replayed through one organization per family, so
// both the generation sharing (several orgs per stream) and the
// cross-family merge are exercised.
func parReplayJobs(t *testing.T, n int) []ReplayJob {
	t.Helper()
	var jobs []ReplayJob
	orgs := []Organization{Base(), DNUCA(nuca.DefaultConfig()), NuRAPID(nurapid.DefaultConfig())}
	for _, name := range []string{"mcf", "gzip"} {
		app, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		for _, org := range orgs {
			jobs = append(jobs, ReplayJob{App: app, Seed: 1, N: n, Org: org})
		}
	}
	return jobs
}

// replaySnapshotString flattens a ReplayResult into a comparable string
// covering the snapshot and every counter — the "byte-identical
// snapshot" half of the determinism contract (Fingerprint covers the
// same fields hashed).
func replaySnapshotString(r *ReplayResult) string {
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		return "writetext error: " + err.Error()
	}
	fmt.Fprintf(&b, "fingerprint %016x\n", r.Fingerprint())
	return b.String()
}

// TestReplayAllMatchesSerial is the chunked-replay determinism
// contract: at 1, 2, 4, 8 and 16 workers (the bench smoke's sweep
// widths), with shuffled task submission standing in for shuffled
// completion order, ReplayAll must reproduce the serial per-job
// ReplayTrace bytes exactly. Run under -race (make race / CI) this also
// shakes out data races in the producer/consumer pipeline.
func TestReplayAllMatchesSerial(t *testing.T) {
	const n = 4000
	jobs := parReplayJobs(t, n)
	model := cacti.Default()

	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = replaySnapshotString(ReplayTrace(model, j.Org, ExtractTraceSource(workload.MustNewGenerator(j.App, j.Seed), j.N)))
	}

	// A fixed non-trivial permutation: reversed pairs across the job
	// list, so later-submitted jobs complete before earlier ones even
	// on a single-proc pool.
	shuffled := make([]int, len(jobs))
	for i := range shuffled {
		shuffled[i] = len(jobs) - 1 - i
	}

	for _, workers := range []int{1, 2, 4, 8, 16} {
		got := ReplayAll(model, jobs, ReplayOptions{Workers: workers, order: shuffled})
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(got), len(jobs))
		}
		for i, res := range got {
			if res == nil {
				t.Fatalf("workers=%d: job %d missing result", workers, i)
			}
			if s := replaySnapshotString(res); s != want[i] {
				t.Fatalf("workers=%d: job %d diverged from serial\nserial:\n%s\npool:\n%s",
					workers, i, want[i], s)
			}
		}
	}
}

// TestReplayAllSharesTraceGeneration pins the sharded-generation
// grouping: jobs over the same (app, seed, n) stream must replay the
// very same trace (one producer per stream), observable as identical
// request counts and — for identical orgs — identical fingerprints.
func TestReplayAllSharesTraceGeneration(t *testing.T) {
	app, ok := workload.ByName("applu")
	if !ok {
		t.Fatal("applu workload model missing")
	}
	model := cacti.Default()
	org := NuRAPID(nurapid.DefaultConfig())
	jobs := []ReplayJob{
		{App: app, Seed: 1, N: 2000, Org: org},
		{App: app, Seed: 1, N: 2000, Org: org},
		{App: app, Seed: 2, N: 2000, Org: org},
	}
	got := ReplayAll(model, jobs, ReplayOptions{Workers: 4})
	if got[0].Fingerprint() != got[1].Fingerprint() {
		t.Fatal("same (app, seed, n, org) jobs produced different fingerprints")
	}
	if got[0].Fingerprint() == got[2].Fingerprint() {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

// panickingOrg is an organization whose factory panics — the seeded
// fault for the worker-pool failure-handling tests.
func panickingOrg() Organization {
	return Organization{Key: "panicker", Factory: func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		panic("sim: seeded test panic")
	}}
}

// TestRunPanicReleasesSingleflight seeds a panic into the one memoized
// execution and checks every concurrent caller of the key — the
// executor and all singleflight waiters — observes it, on both the
// single-core and the CMP path. Before the latch, waiters were released
// with a nil result and crashed on a secondary nil dereference (or the
// process died from a pool goroutine).
func TestRunPanicReleasesSingleflight(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(r *Runner, app workload.App, org Organization)
	}{
		{"single-core", func(r *Runner, app workload.App, org Organization) { r.Run(app, org) }},
		{"cmp", func(r *Runner, app workload.App, org Organization) { r.RunCMP(app, org) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			starts := 0
			r := smallRunner(t, WithInstructions(60_000),
				WithObserver(ObserverFunc(func(e RunEvent) {
					if e.Kind == RunStart {
						starts++
					}
				})))
			app := r.apps[0]

			const callers = 8
			panics := make([]string, callers)
			var wg sync.WaitGroup
			wg.Add(callers)
			for i := 0; i < callers; i++ {
				go func(i int) {
					defer wg.Done()
					defer func() {
						if p := recover(); p != nil {
							panics[i] = fmt.Sprint(p)
						}
					}()
					tc.run(r, app, panickingOrg())
				}(i)
			}
			wg.Wait()

			if starts != 1 {
				t.Fatalf("panicking run started %d times, want exactly 1", starts)
			}
			for i, p := range panics {
				if p == "" {
					t.Fatalf("caller %d did not observe the panic", i)
				}
				if !strings.Contains(p, "seeded test panic") || !strings.Contains(p, "panicker") {
					t.Fatalf("caller %d panic %q does not carry the seeded failure and run key", i, p)
				}
			}
		})
	}
}

// TestPrefetchPanicPropagates seeds a panic into one task of prefetch,
// serial and pooled, and checks the pool finishes the remaining tasks,
// then re-raises the failure from prefetch on the caller's goroutine —
// instead of killing the process from an anonymous worker goroutine
// mid-fan-out. Draining matters for the shared stream cache too: a
// stream prefetch planned but never filled would block a later
// Runner's run of that app forever. A serial pool's one worker is the
// caller: every run finishes on its goroutine.
func TestPrefetchPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			finishes, onCaller := 0, 0
			caller := goid()
			r := smallRunner(t, WithInstructions(60_000), WithWorkers(workers),
				WithObserver(ObserverFunc(func(e RunEvent) {
					if e.Kind == RunFinish {
						finishes++
						if goid() == caller {
							onCaller++
						}
					}
				})))
			fronts := &producers[[]*cpu.Stream]{}
			r.fronts = fronts

			var caught string
			func() {
				defer func() {
					if p := recover(); p != nil {
						caught = fmt.Sprint(p)
					}
				}()
				r.prefetch(runSet{apps: r.apps, orgs: []Organization{Base(), panickingOrg(), Ideal()}})
			}()

			if caught == "" {
				t.Fatal("prefetch swallowed the task panic")
			}
			if !strings.Contains(caught, "seeded test panic") {
				t.Fatalf("prefetch panic %q does not carry the seeded failure", caught)
			}
			// Every healthy (app, org) pair still ran: the pool drained
			// instead of dying mid-flight.
			if want := len(r.apps) * 2; finishes != want {
				t.Fatalf("pool finished %d healthy runs before re-raising, want %d", finishes, want)
			}
			if workers == 1 && onCaller != finishes {
				t.Fatalf("%d of %d runs finished on the caller's goroutine, want all of them at one worker", onCaller, finishes)
			}
			if filled, _, live := streamState(fronts); filled != 0 || len(live) != 0 {
				t.Fatalf("after the failed prefetch %d streams held, live keys %v; want none", filled, live)
			}

			// A fresh Runner on the same cache runs the last planned app.
			later := smallRunner(t, WithInstructions(60_000))
			later.fronts = fronts
			done := make(chan struct{})
			go func() {
				defer close(done)
				later.Run(r.apps[len(r.apps)-1], NuRAPID(nurapid.DefaultConfig()))
			}()
			select {
			case <-done:
			case <-time.After(time.Minute):
				t.Fatal("a later Runner's Run blocked on a stream the failed prefetch planned")
			}
		})
	}
}

// TestRunPoolPanicIsDeterministic pins which panic wins when several
// tasks fail: the lowest submission index, whatever the completion
// order, at one worker (the caller, which then runs every consumer
// itself) and at four.
func TestRunPoolPanicIsDeterministic(t *testing.T) {
	caller := goid()
	for _, workers := range []int{1, 4} {
		for trial := 0; trial < 4; trial++ {
			var caught string
			var onCaller atomic.Int32
			consumer := func(f func()) func() {
				return func() {
					if goid() == caller {
						onCaller.Add(1)
					}
					f()
				}
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						caught = fmt.Sprint(p)
					}
				}()
				runPool(workers, []group{{
					produce: func() {},
					consume: []func(){
						consumer(func() { panic("sim: first seeded panic") }),
						consumer(func() { panic("sim: second seeded panic") }),
						consumer(func() {}),
					},
				}})
			}()
			if !strings.Contains(caught, "task 1") || !strings.Contains(caught, "first seeded panic") {
				t.Fatalf("workers=%d trial %d: runPool re-raised %q, want the lowest-index panic (task 1)", workers, trial, caught)
			}
			if workers == 1 && onCaller.Load() != 3 {
				t.Fatalf("trial %d: %d of 3 consumers ran on the caller's goroutine, want all of them at one worker", trial, onCaller.Load())
			}
		}
	}
}

// TestRunPoolNoGroups pins the empty pool: runPool with no groups
// returns at once, allocating nothing and so starting no goroutine (a
// goroutine's closure over the pool's state would allocate).
func TestRunPoolNoGroups(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, groups := range [][]group{nil, {}} {
		if allocs := testing.AllocsPerRun(100, func() { runPool(4, groups) }); allocs != 0 {
			t.Fatalf("runPool(4, %#v) allocated %.0f times, want a return at once", groups, allocs)
		}
	}
	if n := runtime.NumGoroutine(); n != start {
		t.Fatalf("%d goroutines after an empty runPool, started with %d", n, start)
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// settled waits until no more than start goroutines are left, failing
// the test if some are still running after 10 s.
func settled(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the pool, started with %d", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLaneProducerPanic seeds a panic into the lane: app k of 4 is a
// model the generator rejects, so recording its front end (prefetch) or
// generating its trace (ReplayAll) panics, at 1, 2 and 4 workers. The
// lane latches the panic on the stream and goes on producing, so every
// consumer of app k is released to re-raise it and every other app's
// runs finish; the caller gets the panic of app k's first consumer (the
// lowest submission index), and no goroutine of the pool outlives the
// call. A standalone Run of app k fails the same way.
func TestLaneProducerPanic(t *testing.T) {
	var apps []workload.App
	for _, name := range []string{"applu", "mcf", "gzip", "art"} {
		app, _ := workload.ByName(name)
		apps = append(apps, app)
	}
	orgs := []Organization{Base(), NuRAPID(nurapid.DefaultConfig())}
	// Each app is one group: its producer, then one consumer per org.
	firstConsumer := func(k int) string { return fmt.Sprintf("pooled task %d panicked", k*(1+len(orgs))+1) }
	catch := func(f func()) (caught string) {
		defer func() { caught = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	for k := range apps {
		broken := append([]workload.App(nil), apps...)
		broken[k].CodeKB = 0 // the generator rejects it
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("prefetch/app=%d/workers=%d", k, workers), func(t *testing.T) {
				start := runtime.NumGoroutine()
				var mu sync.Mutex
				finishes := 0
				r := NewRunner(WithInstructions(20_000), WithApps(broken...), WithWorkers(workers),
					WithObserver(ObserverFunc(func(e RunEvent) {
						if e.Kind == RunFinish {
							mu.Lock()
							finishes++
							mu.Unlock()
						}
					})))
				r.fronts = &producers[[]*cpu.Stream]{}
				caught := catch(func() { r.prefetch(runSet{apps: broken, orgs: orgs}) })
				if !strings.Contains(caught, firstConsumer(k)) || !strings.Contains(caught, "bad code footprint") {
					t.Fatalf("prefetch re-raised %q, want app %d's first consumer (%s) re-raising the recorder's panic", caught, k, firstConsumer(k))
				}
				if want := (len(apps) - 1) * len(orgs); finishes != want {
					t.Fatalf("%d runs finished, want every run of the %d healthy apps (%d)", finishes, len(apps)-1, want)
				}
				if filled, _, live := streamState(r.fronts); filled != 0 || len(live) != 0 {
					t.Fatalf("after the failed prefetch %d front ends held, live %v; want none", filled, live)
				}
				settled(t, start)
			})
			t.Run(fmt.Sprintf("run/app=%d/workers=%d", k, workers), func(t *testing.T) {
				start := runtime.NumGoroutine()
				r := NewRunner(WithInstructions(20_000), WithApps(broken...), WithWorkers(workers))
				r.fronts = &producers[[]*cpu.Stream]{}
				caught := catch(func() { r.Run(broken[k], orgs[1]) })
				if key := broken[k].Name + "/" + orgs[1].Key; !strings.Contains(caught, key) || !strings.Contains(caught, "bad code footprint") {
					t.Fatalf("a standalone Run re-raised %q, want the run key %s and the recorder's panic", caught, key)
				}
				if filled, _, live := streamState(r.fronts); filled != 0 || len(live) != 0 || produced(r.fronts) != 1 {
					t.Fatalf("after the failed Run %d front ends held, live %v, %d recorded; want none, none, 1", filled, live, produced(r.fronts))
				}
				settled(t, start)
			})
			t.Run(fmt.Sprintf("replay/app=%d/workers=%d", k, workers), func(t *testing.T) {
				start := runtime.NumGoroutine()
				var jobs []ReplayJob
				for _, app := range broken {
					for _, org := range orgs {
						jobs = append(jobs, ReplayJob{App: app, Seed: 1, N: 2000, Org: org})
					}
				}
				caught := catch(func() { ReplayAll(cacti.Default(), jobs, ReplayOptions{Workers: workers}) })
				if !strings.Contains(caught, firstConsumer(k)) || !strings.Contains(caught, "bad code footprint") {
					t.Fatalf("ReplayAll re-raised %q, want app %d's first replay (%s) re-raising the generator's panic", caught, k, firstConsumer(k))
				}
				settled(t, start)
			})
		}
	}
}

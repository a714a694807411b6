package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/cpu"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/workload"
)

// streamState reads the producer cache's bookkeeping: streams holding a
// value now, the most ever at once, and the keys still live.
func streamState[T any](p *producers[T]) (filled, peak int, live []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.live {
		live = append(live, k.String())
	}
	return p.filled, p.peak, live
}

// produced reads how many streams p has produced so far.
func produced[T any](p *producers[T]) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.produced
}

// TestStreamSerialRunnerHoldsTwo pins the serial schedule's memory
// budget: a serial Runner's prefetch records each app once, on the lane
// while its one worker times the app before, so it holds at most two
// front-end streams at a time; it records every app into the same two
// buffers, and retires each after its app's last run. A Run outside any
// plan holds its own stream only while it runs.
func TestStreamSerialRunnerHoldsTwo(t *testing.T) {
	var r *Runner
	buffers := map[*cpu.Stream]bool{}
	r = smallRunner(t, WithInstructions(60_000), WithObserver(ObserverFunc(func(e RunEvent) {
		app, _ := workload.ByName(e.App)
		r.fronts.mu.Lock()
		defer r.fronts.mu.Unlock()
		if fe := r.fronts.live[r.frontKey(app, false)]; fe != nil && fe.done {
			buffers[fe.val[0]] = true
		}
	})))
	r.fronts = &producers[[]*cpu.Stream]{}
	orgs := []Organization{Base(), NuRAPID(nurapid.DefaultConfig()), Ideal()}
	r.prefetch(runSet{apps: r.apps, orgs: orgs})
	filled, peak, live := streamState(r.fronts)
	if filled != 0 || peak < 1 || peak > 2 || len(live) != 0 {
		t.Fatalf("after a serial prefetch: %d streams held, peak %d, live %v; want 0, 1..2, none", filled, peak, live)
	}
	if got := produced(r.fronts); got != len(r.apps) {
		t.Fatalf("recorded %d streams for %d apps", got, len(r.apps))
	}
	if len(buffers) < 1 || len(buffers) > 2 {
		t.Fatalf("runs replayed %d distinct stream buffers, want the same one or two reused for every app", len(buffers))
	}

	// Outside any plan, each Run records its own stream and retires it.
	app := r.apps[0]
	r.Run(app, DNUCA(nuca.DefaultConfig()))
	if filled, peak2, live := streamState(r.fronts); filled != 0 || peak2 != peak || len(live) != 0 {
		t.Fatalf("after an unplanned Run: %d streams held, peak %d, live %v; want 0, %d, none", filled, peak2, live, peak)
	}
	if got := produced(r.fronts); got != len(r.apps)+1 {
		t.Fatalf("an unplanned Run recorded %d streams, want 1", got-len(r.apps))
	}
}

// TestStreamStandaloneRun pins a Run or RunCMP outside any experiment
// to the one path, at 1 and 4 workers: its front end is planned before
// the run starts, recorded once, held alone, and retired after the run,
// and no goroutine of the pool outlives the call.
func TestStreamStandaloneRun(t *testing.T) {
	for _, cmpRun := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("cmp=%v/workers=%d", cmpRun, workers), func(t *testing.T) {
				var r *Runner
				starts, planned := 0, 0
				r = smallRunner(t, WithInstructions(20_000), WithWorkers(workers),
					WithObserver(ObserverFunc(func(e RunEvent) {
						if e.Kind != RunStart {
							return
						}
						starts++
						app, _ := workload.ByName(e.App)
						r.fronts.mu.Lock()
						if r.fronts.live[r.frontKey(app, cmpRun)] != nil {
							planned++
						}
						r.fronts.mu.Unlock()
					})))
				r.fronts = &producers[[]*cpu.Stream]{}
				start := runtime.NumGoroutine()
				if cmpRun {
					r.RunCMP(r.apps[0], Base())
				} else {
					r.Run(r.apps[0], Base())
				}
				if starts != 1 || planned != 1 {
					t.Fatalf("%d runs started, %d with their front end planned; want 1, 1", starts, planned)
				}
				if filled, peak, live := streamState(r.fronts); produced(r.fronts) != 1 || peak != 1 || filled != 0 || len(live) != 0 {
					t.Fatalf("%d front ends recorded, peak %d, %d held, live %v; want 1, 1, 0, none",
						produced(r.fronts), peak, filled, live)
				}
				settled(t, start)
			})
		}
	}
}

// TestStreamRecordedOncePerApp pins the one schedule end to end: on a
// serial Runner, All() and every experiment ByID records each distinct
// app's front end exactly once, however many organizations it runs on:
// its stream for single-core runs, its fronts for CMP runs, both in the
// one cache. The last input runs fig6 and then cmp on one Runner, so
// both kinds pass through that cache.
func TestStreamRecordedOncePerApp(t *testing.T) {
	inputs := [][]string{{"all"}}
	for _, id := range ExperimentIDs() {
		inputs = append(inputs, []string{id})
	}
	inputs = append(inputs, []string{"fig6", "cmp"})
	for _, ids := range inputs {
		name := strings.Join(ids, "+")
		r := smallRunner(t, WithInstructions(30_000))
		r.fronts = &producers[[]*cpu.Stream]{}
		for _, id := range ids {
			if id == "all" {
				r.All()
			} else if _, err := r.ByID(id); err != nil {
				t.Fatal(err)
			}
		}
		apps, cmpApps := map[string]bool{}, map[string]bool{}
		for key := range r.memo {
			apps[key[:strings.IndexByte(key, '/')]] = true
		}
		for key := range r.cmpMemo {
			cmpApps[key[:strings.IndexByte(key, '/')]] = true
		}
		if got, want := produced(r.fronts), len(apps)+len(cmpApps); got != want {
			t.Errorf("%s: recorded %d front ends for %d distinct single-core and %d distinct CMP apps", name, got, len(apps), len(cmpApps))
		}
		if filled, peak, live := streamState(r.fronts); filled != 0 || peak > 2 || len(live) != 0 {
			t.Errorf("%s: %d front ends held, peak %d, live %v; want 0, at most 2, none", name, filled, peak, live)
		}
	}
}

// TestStreamPrefetchLifecycle pins prefetch's schedule for single-core
// runs and for CMP runs at both sharing patterns, serial and pooled:
// every run starts with its app's front end live, each app's front end
// is recorded once, at most Workers+1 hold buffers at once (and a
// serial Runner records every app into the same two buffers), every
// front end is retired once its last run is done, and memoized runs
// leave the cache untouched.
func TestStreamPrefetchLifecycle(t *testing.T) {
	kinds := []struct {
		name    string
		cmp     bool
		sharing cmp.Sharing
	}{
		{"single-core", false, 0},
		{"cmp-shared", true, cmp.Shared},
		{"cmp-private", true, cmp.Private},
	}
	for _, k := range kinds {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", k.name, workers), func(t *testing.T) {
				var r *Runner
				var missing []string
				buffers := map[*cpu.Stream]bool{}
				r = smallRunner(t, WithInstructions(20_000), WithWorkers(workers), WithCores(3), WithSharing(k.sharing),
					WithObserver(ObserverFunc(func(e RunEvent) {
						if e.Kind != RunStart {
							return
						}
						app, _ := workload.ByName(e.App)
						r.fronts.mu.Lock()
						if fe := r.fronts.live[r.frontKey(app, k.cmp)]; fe == nil {
							missing = append(missing, e.App+"/"+e.Org)
						} else if fe.done {
							buffers[fe.val[0]] = true
						}
						r.fronts.mu.Unlock()
					})))
				r.fronts = &producers[[]*cpu.Stream]{}
				p := runSet{apps: r.apps, orgs: []Organization{Base(), NuRAPID(nurapid.DefaultConfig()), Ideal()}}
				if k.cmp {
					p = r.cmpStudy()
				}
				r.prefetch(p)
				if len(missing) > 0 {
					t.Fatalf("runs started without their app's front end live: %v", missing)
				}
				filled, peak, live := streamState(r.fronts)
				if filled != 0 || len(live) != 0 {
					t.Fatalf("after prefetch %d front ends still held, live keys %v; want none", filled, live)
				}
				if peak < 1 || peak > workers+1 {
					t.Fatalf("peak %d front ends held at once, want 1..%d", peak, workers+1)
				}
				recorded := produced(r.fronts)
				if recorded != len(r.apps) {
					t.Fatalf("recorded %d front ends for %d apps", recorded, len(r.apps))
				}
				if workers == 1 && len(buffers) > 2 {
					t.Fatalf("a serial Runner's runs read %d distinct front-end buffers, want the same two reused for every app", len(buffers))
				}
				// The memo is complete: assembling results runs nothing and
				// records nothing.
				for _, app := range p.apps {
					for _, org := range p.orgs {
						if k.cmp {
							r.RunCMP(app, org)
						} else {
							r.Run(app, org)
						}
					}
				}
				if _, peak2, live := streamState(r.fronts); peak2 != peak || len(live) != 0 || produced(r.fronts) != recorded {
					t.Fatalf("memoized runs touched the front-end cache: peak %d -> %d, live %v, recorded %d -> %d",
						peak, peak2, live, recorded, produced(r.fronts))
				}
			})
		}
	}
}

// TestStreamRecycledSetDropsSpareFronts pins the recycling of a wider
// set into a narrower one in the one cache: a single-core stream
// recorded into a private CMP run's retired fronts keeps one of them and
// holds no pointer to the others.
func TestStreamRecycledSetDropsSpareFronts(t *testing.T) {
	r := smallRunner(t, WithInstructions(20_000), WithCores(3), WithSharing(cmp.Private))
	r.fronts = &producers[[]*cpu.Stream]{}
	r.RunCMP(r.apps[0], Base())
	r.Run(r.apps[0], Base())
	if n := len(r.fronts.free); n != 1 {
		t.Fatalf("free list holds %d sets, want the one recycled set", n)
	}
	set := r.fronts.free[0]
	if len(set) != 1 {
		t.Fatalf("recycled set has %d members, want the stream alone", len(set))
	}
	for i, s := range set[1:cap(set)] {
		if s != nil {
			t.Fatalf("recycled set still holds front %d past its length", i+1)
		}
	}
}

// TestStreamProducerPanic seeds a panic into a producer: every consumer
// re-raises it instead of blocking on a stream that never comes, and
// the failed stream is retired without entering the free list.
func TestStreamProducerPanic(t *testing.T) {
	var p producers[int]
	app, _ := workload.ByName("applu")
	key := streamKey{app: app, seed: 1, n: 10}
	const consumers = 3
	var mu sync.Mutex
	var caught []string
	var consume []func(*shared[int])
	for i := 0; i < consumers; i++ {
		consume = append(consume, func(e *shared[int]) {
			defer func() {
				mu.Lock()
				caught = append(caught, fmt.Sprint(recover()))
				mu.Unlock()
			}()
			e.wait()
		})
	}
	runPool(2, schedule(nil, &p, key, "test", func(int) int { panic("sim: seeded producer panic") }, consume))
	if len(caught) != consumers {
		t.Fatalf("%d of %d consumers returned", len(caught), consumers)
	}
	for _, c := range caught {
		if !strings.Contains(c, "seeded producer panic") || !strings.Contains(c, key.String()) {
			t.Fatalf("consumer saw %q, want the producer's panic and the stream key", c)
		}
	}
	if filled, _, live := streamState(&p); filled != 0 || len(live) != 0 || len(p.free) != 0 {
		t.Fatalf("failed stream not retired: %d held, live %v, %d free", filled, live, len(p.free))
	}
}

// TestStreamReplayAllRecycles runs ReplayAll over more streams than
// workers and checks, through ReplayTrace on the same traces, that
// recycled request buffers never leak one stream's requests into
// another: every fingerprint matches a fresh serial replay.
func TestStreamReplayAllRecycles(t *testing.T) {
	model := cacti.Default()
	org := NuRAPID(nurapid.DefaultConfig())
	var jobs []ReplayJob
	for _, name := range []string{"applu", "mcf", "gzip", "art", "galgel"} {
		app, _ := workload.ByName(name)
		// A longer trace after a shorter one exercises the regrow path.
		for _, n := range []int{1500, 3000} {
			jobs = append(jobs, ReplayJob{App: app, Seed: 1, N: n, Org: org}, ReplayJob{App: app, Seed: 1, N: n, Org: Base()})
		}
	}
	for _, workers := range []int{1, 2} {
		got := ReplayAll(model, jobs, ReplayOptions{Workers: workers})
		for i, j := range jobs {
			want := ReplayTrace(model, j.Org, ExtractTraceSource(workload.MustNewGenerator(j.App, j.Seed), j.N))
			if got[i].Fingerprint() != want.Fingerprint() {
				t.Fatalf("workers=%d job %d (%s n=%d %s): fingerprint differs from a fresh replay",
					workers, i, j.App.Name, j.N, j.Org.Key)
			}
		}
	}
}

// TestStreamSharedAcrossRunners pins the process-wide cache: a second
// Runner over the same (app, seed, n) records into the buffer the first
// one retired to the free list, while an app model that only shares the
// name gets its own stream — and every result matches a Runner with a
// private cache.
func TestStreamSharedAcrossRunners(t *testing.T) {
	fresh := func(app workload.App, org Organization) *RunResult {
		r := smallRunner(t, WithInstructions(60_000))
		r.fronts = &producers[[]*cpu.Stream]{}
		return r.Run(app, org)
	}
	lastFree := func() *cpu.Stream {
		frontEnds.mu.Lock()
		defer frontEnds.mu.Unlock()
		if n := len(frontEnds.free); n > 0 {
			return frontEnds.free[n-1][0]
		}
		return nil
	}
	app := smallRunner(t).apps[0]
	twin := app
	twin.HotFrac /= 2 // same name, different model

	smallRunner(t, WithInstructions(60_000)).Run(app, Base())
	retired := lastFree()
	if filled, _, live := streamState(&frontEnds); filled != 0 || len(live) != 0 || retired == nil {
		t.Fatalf("after a run of %s: %d streams held, live %v, free-list top %p; want its stream retired", app.Name, filled, live, retired)
	}
	before := produced(&frontEnds)
	if got, want := smallRunner(t, WithInstructions(60_000)).Run(app, Ideal()).CPU, fresh(app, Ideal()).CPU; got != want {
		t.Fatalf("a later Runner's run %+v differs from a fresh recording's %+v", got, want)
	}
	if produced(&frontEnds) != before+1 || lastFree() != retired {
		t.Fatal("a later Runner did not record into the buffer the free list held")
	}
	if got, want := smallRunner(t, WithInstructions(60_000)).Run(twin, Base()).CPU, fresh(twin, Base()).CPU; got != want {
		t.Fatalf("same-named app model replayed %+v, want its own stream's %+v", got, want)
	}
	if fresh(twin, Base()).CPU == fresh(app, Base()).CPU {
		t.Fatal("the twin app model is indistinguishable; the test proves nothing")
	}
}

// TestStreamConcurrentRunners drives the process-wide cache from
// several goroutines at once, each with its own serial Runner walking
// the apps in a different order, so live streams are shared and the
// free list is contended. Every result must equal a run on a private
// cache.
func TestStreamConcurrentRunners(t *testing.T) {
	orgs := []Organization{Base(), Ideal()}
	apps := smallRunner(t).apps
	want := map[string]cpu.Result{}
	ref := smallRunner(t, WithInstructions(30_000))
	ref.fronts = &producers[[]*cpu.Stream]{}
	for _, app := range apps {
		for _, org := range orgs {
			want[app.Name+"/"+org.Key] = ref.Run(app, org).CPU
		}
	}
	const runners = 4
	var wg sync.WaitGroup
	errs := make([]string, runners)
	for g := 0; g < runners; g++ {
		r := smallRunner(t, WithInstructions(30_000))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range apps {
				app := apps[(i+g)%len(apps)]
				for _, org := range orgs {
					if got := r.Run(app, org).CPU; got != want[app.Name+"/"+org.Key] {
						errs[g] = fmt.Sprintf("runner %d: %s/%s replayed %+v, want %+v", g, app.Name, org.Key, got, want[app.Name+"/"+org.Key])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}

package sim

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/cpu"
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

// TestStreamSerialRunnerHoldsOne pins the serial path's memory budget:
// running app after app, organization after organization, the Runner
// holds one front-end stream, records it once per app, and reuses its
// buffers for the next app.
func TestStreamSerialRunnerHoldsOne(t *testing.T) {
	r := smallRunner(t, WithInstructions(60_000))
	r.streams = &producers[*cpu.Stream]{}
	orgs := []Organization{Base(), NuRAPID(nurapid.DefaultConfig()), Ideal()}
	for _, app := range r.Apps {
		var first *shared[*cpu.Stream]
		for _, org := range orgs {
			r.Run(app, org)
			if filled, peak, _ := streamState(r.streams); filled != 1 || peak != 1 {
				t.Fatalf("%s/%s: %d streams held, peak %d; want 1 and 1", app.Name, org.Key, filled, peak)
			}
			slot := r.streams.slot
			if slot == nil || slot.key != r.streamKey(app) {
				t.Fatalf("%s/%s: slot holds %v, want the app's stream", app.Name, org.Key, slot)
			}
			if first == nil {
				first = slot
			} else if slot != first {
				t.Fatalf("%s/%s: stream recorded again for a later organization", app.Name, org.Key)
			}
		}
		if len(r.streams.free) != 0 {
			t.Fatalf("%s: %d idle streams on the free list, want the slot's buffer reused", app.Name, len(r.streams.free))
		}
	}
}

// TestStreamPrefetchLifecycle pins the pooled path: every run starts
// with its app's stream live, at most Workers+1 streams hold buffers at
// once, and every stream is retired once its last run is done.
func TestStreamPrefetchLifecycle(t *testing.T) {
	orgs := []Organization{Base(), NuRAPID(nurapid.DefaultConfig()), Ideal()}
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var r *Runner
			var missing []string
			r = smallRunner(t, WithInstructions(60_000), WithWorkers(workers),
				WithObserver(ObserverFunc(func(e RunEvent) {
					if e.Kind != RunStart {
						return
					}
					app, _ := workload.ByName(e.App)
					r.streams.mu.Lock()
					if r.streams.live[r.streamKey(app)] == nil {
						missing = append(missing, e.App+"/"+e.Org)
					}
					r.streams.mu.Unlock()
				})))
			r.streams = &producers[*cpu.Stream]{}
			r.Prefetch(r.Apps, orgs)
			if len(missing) > 0 {
				t.Fatalf("runs started without their app's stream live: %v", missing)
			}
			filled, peak, live := streamState(r.streams)
			if filled != 0 || len(live) != 0 {
				t.Fatalf("after Prefetch %d streams still held, live keys %v; want none", filled, live)
			}
			if peak < 1 || peak > workers+1 {
				t.Fatalf("peak %d streams held at once, want 1..%d", peak, workers+1)
			}
			// The memo is complete: assembling results runs nothing and
			// records nothing.
			for _, app := range r.Apps {
				for _, org := range orgs {
					r.Run(app, org)
				}
			}
			if _, peak2, live := streamState(r.streams); peak2 != peak || len(live) != 0 {
				t.Fatalf("memoized runs touched the stream cache: peak %d -> %d, live %v", peak, peak2, live)
			}
		})
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
	e, fresh := p.plan(key, consumers)
	if !fresh {
		t.Fatal("first plan of a key must ask for a producer")
	}
	tasks := []func(){func() {
		p.fill(context.Background(), e, "test", func(int) int { panic("sim: seeded producer panic") })
	}}
	var mu sync.Mutex
	var caught []string
	for i := 0; i < consumers; i++ {
		tasks = append(tasks, func() {
			defer p.release(e)
			defer func() {
				mu.Lock()
				caught = append(caught, fmt.Sprint(recover()))
				mu.Unlock()
			}()
			e.wait()
		})
	}
	runPool(2, tasks)
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
// Runner over the same (app, seed, n) replays the stream the first one
// recorded, while an app model that only shares the name gets its own
// stream — and every result matches a Runner with a private cache.
func TestStreamSharedAcrossRunners(t *testing.T) {
	fresh := func(app workload.App, org Organization) *RunResult {
		r := smallRunner(t, WithInstructions(60_000))
		r.streams = &producers[*cpu.Stream]{}
		return r.Run(app, org)
	}
	app := smallRunner(t).Apps[0]
	twin := app
	twin.HotFrac /= 2 // same name, different model

	smallRunner(t, WithInstructions(60_000)).Run(app, Base())
	frontEnds.mu.Lock()
	recorded := frontEnds.slot
	frontEnds.mu.Unlock()
	if recorded == nil || recorded.key.app != app {
		t.Fatalf("slot holds %v after a run of %s", recorded, app.Name)
	}
	if got, want := smallRunner(t, WithInstructions(60_000)).Run(app, Ideal()).CPU, fresh(app, Ideal()).CPU; got != want {
		t.Fatalf("shared-stream run %+v differs from a fresh recording's %+v", got, want)
	}
	frontEnds.mu.Lock()
	reused := frontEnds.slot == recorded
	frontEnds.mu.Unlock()
	if !reused {
		t.Fatal("a second Runner re-recorded a stream the slot already held")
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
// the apps in a different order, so the shared slot is contended and
// re-recorded. Every result must equal a run on a private cache.
func TestStreamConcurrentRunners(t *testing.T) {
	orgs := []Organization{Base(), Ideal()}
	apps := smallRunner(t).Apps
	want := map[string]cpu.Result{}
	ref := smallRunner(t, WithInstructions(30_000))
	ref.streams = &producers[*cpu.Stream]{}
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

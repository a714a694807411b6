package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

// renderEverything regenerates every experiment — the full paper set
// plus the three sweeps — on a runner with the given worker count and
// returns the rendered bytes (text and CSV), exactly as cmd/experiments
// would print them.
func renderEverything(t *testing.T, workers int) string {
	t.Helper()
	r := smallRunner(t, WithInstructions(60_000), WithWorkers(workers))
	exps := r.All()
	exps = append(exps, r.CapacitySweep(), r.BlockSweep(), r.TechSweep())
	var b strings.Builder
	for _, e := range exps {
		if err := e.Render(&b, false); err != nil {
			t.Fatal(err)
		}
		if err := e.Render(&b, true); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestParallelAllMatchesSerial is the parallel runner's determinism
// contract: rendering every experiment on an 8-worker pool must produce
// the same bytes as the serial runner at the same seed. GOMAXPROCS is
// raised to 8 for the test, so the 8 workers run on 8 threads that the
// OS interleaves even on a host with fewer procs, which reaches more
// orderings. Run under -race (make race / CI) this also shakes out data
// races in the fan-out and singleflight layers.
func TestParallelAllMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	serial := renderEverything(t, 1)
	parallel := renderEverything(t, 8)
	if serial != parallel {
		t.Fatalf("parallel rendering diverged from serial:\nserial %d bytes, parallel %d bytes\nfirst diff near %q",
			len(serial), len(parallel), firstDiff(serial, parallel))
	}
	if len(serial) == 0 {
		t.Fatal("rendered output is empty")
	}
}

// TestSingleflightConcurrentRun proves the memo is singleflight:
// concurrent Run calls for the same (app, org) must execute the
// simulation exactly once and share the one result.
func TestSingleflightConcurrentRun(t *testing.T) {
	starts := 0
	obs := ObserverFunc(func(e RunEvent) {
		if e.Kind == RunStart {
			starts++
		}
	})
	r := smallRunner(t, WithInstructions(60_000), WithObserver(obs))
	app := r.apps[0]

	const callers = 16
	results := make([]*RunResult, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(app, Base())
		}(i)
	}
	wg.Wait()

	if starts != 1 {
		t.Fatalf("simulation executed %d times for one key, want exactly 1", starts)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("caller %d got nil result", i)
		}
		if res != results[0] {
			t.Fatalf("caller %d got a different result object", i)
		}
	}
}

// TestPrefetchWarmsMemo checks that prefetch executes the submitted
// matrix on the pool, so subsequent Run calls are pure memo lookups
// (no further events).
func TestPrefetchWarmsMemo(t *testing.T) {
	finishes := 0
	obs := ObserverFunc(func(e RunEvent) {
		if e.Kind == RunFinish {
			finishes++
		}
	})
	r := smallRunner(t, WithInstructions(60_000), WithWorkers(4), WithObserver(obs))
	orgs := []Organization{Base(), Ideal()}
	r.prefetch(runSet{apps: r.apps, orgs: orgs})
	want := len(r.apps) * len(orgs)
	if finishes != want {
		t.Fatalf("prefetch executed %d runs, want %d", finishes, want)
	}
	for _, app := range r.apps {
		for _, org := range orgs {
			r.Run(app, org)
		}
	}
	if finishes != want {
		t.Fatalf("memoized Run re-executed: %d events, want %d", finishes, want)
	}
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -experiment all            # everything, paper order
//	experiments -experiment fig9           # one table/figure
//	experiments -experiment fig6 -n 500000 # shorter runs
//	experiments -experiment fig4 -csv      # machine-readable output
//	experiments -workers 1                 # serial execution
//
// Runs are deterministic for a given -seed: the rendered tables and
// figures are byte-identical whatever -workers is; only the order of
// the stderr progress lines depends on scheduling.
//
// Observability:
//
//	experiments -experiment fig6 -trace traces   # JSONL event traces
//	experiments -http localhost:6060 ...         # expvar + pprof
//
// -trace writes one <app>__<org>.jsonl per executed run (analyze with
// nurapidtrace); -http serves /debug/vars (run progress counters) and
// /debug/pprof while the experiments run. Neither affects the rendered
// tables.
//
// -selfcheck runs a short differential comparison of the NuRAPID
// implementation against its executable spec (internal/refmodel) before
// rendering anything, and aborts on the first divergence — a cheap
// pre-flight for long measurement campaigns (`make diff-fuzz` is the
// full matrix).
//
// -replay <app> replays the app's L2 trace through the standard
// organizations instead of running experiments; it reads -n, -seed and
// -workers, and exits 2 if any flag it does not read is set.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/refmodel/difftest"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "all (the paper campaign) or one of: "+strings.Join(sim.ExperimentIDs(), ", "))
		n          = flag.Int64("n", 2_000_000, "instructions to simulate per application")
		seed       = flag.Uint64("seed", 1, "workload seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")
		trace      = flag.String("trace", "", "directory for per-run JSONL event traces (created if missing)")
		httpAddr   = flag.String("http", "", "serve expvar and pprof diagnostics on this address (e.g. localhost:6060)")
		selfcheck  = flag.Bool("selfcheck", false, "differentially check nurapid against its executable spec first")
		replay     = flag.String("replay", "", "replay an application's L2 trace through the batched path instead of running experiments")
		cores      = flag.Int("cores", 2, "cores sharing one L2 in CMP runs")
		sharing    = flag.String("sharing", "shared", "CMP workload pattern: shared or private")
	)
	flag.Parse()
	sharingPattern, err := checkFlags(*n, *cores, *sharing)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *replay != "" {
		if err := checkReplayFlags(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := runReplay(os.Stdout, *replay, *seed, *n, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	if *selfcheck {
		if err := runSelfcheck(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	opts := []sim.Option{
		sim.WithInstructions(*n),
		sim.WithSeed(*seed),
		sim.WithWorkers(*workers),
		sim.WithCores(*cores),
		sim.WithSharing(sharingPattern),
	}
	var observers []sim.Observer
	if !*quiet {
		observers = append(observers, sim.TextObserver(os.Stderr))
		opts = append(opts, sim.WithClock(wallClock()))
	}
	if *trace != "" {
		if err := os.MkdirAll(*trace, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts = append(opts, sim.WithTrace(*trace))
	}
	if *httpAddr != "" {
		observers = append(observers, expvarObserver())
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "diagnostics server:", err)
			}
		}()
	}
	if len(observers) > 0 {
		opts = append(opts, sim.WithObserver(fanOut(observers)))
	}
	r := sim.NewRunner(opts...)

	exps, err := experiments(r, *experiment)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := render(os.Stdout, exps, *csv); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := r.ProbeErr(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// checkFlags rejects -n or -cores below one and parses -sharing.
func checkFlags(n int64, cores int, sharing string) (cmp.Sharing, error) {
	if n < 1 {
		return 0, fmt.Errorf("-n must be at least 1, got %d", n)
	}
	if cores < 1 {
		return 0, fmt.Errorf("-cores must be at least 1, got %d", cores)
	}
	return cmp.ParseSharing(sharing)
}

// replayIgnored names the flags a -replay run does not read. -q is not
// among them: the replay prints no progress lines, so it has nothing to
// quiet.
var replayIgnored = []string{"experiment", "csv", "trace", "selfcheck", "cores", "sharing", "http"}

// checkReplayFlags rejects a -replay run given any flag of
// replayIgnored explicitly, rather than silently dropping it.
func checkReplayFlags(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(replayIgnored, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("-replay does not read %s", strings.Join(set, ", "))
	}
	return nil
}

// experiments runs the experiment named by id, or every one for "all".
func experiments(r *sim.Runner, id string) ([]*sim.Experiment, error) {
	if id == "all" {
		return r.All(), nil
	}
	e, err := r.ByID(id)
	if err != nil {
		return nil, err
	}
	return []*sim.Experiment{e}, nil
}

// render writes each experiment after a blank line.
func render(w io.Writer, exps []*sim.Experiment, csv bool) error {
	for _, e := range exps {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := e.Render(w, csv); err != nil {
			return err
		}
	}
	return nil
}

// fanOut composes observers; the Runner already serializes Observe
// calls, so plain sequential delivery is enough.
func fanOut(obs []sim.Observer) sim.Observer {
	if len(obs) == 1 {
		return obs[0]
	}
	return sim.ObserverFunc(func(e sim.RunEvent) {
		for _, o := range obs {
			o.Observe(e)
		}
	})
}

// expvarObserver publishes run-progress counters at /debug/vars:
// sim_runs_started / sim_runs_finished track executed (non-memoized)
// simulations, sim_last_run names the most recent one, and
// sim_last_metrics carries its full metrics snapshot (including the
// obs_ts_* time-series registry of probed CMP runs — waterfall
// components, fairness, per-bank contention).
func expvarObserver() sim.Observer {
	started := expvar.NewInt("sim_runs_started")
	finished := expvar.NewInt("sim_runs_finished")
	last := expvar.NewString("sim_last_run")
	metrics := expvar.NewMap("sim_last_metrics")
	return sim.ObserverFunc(func(e sim.RunEvent) {
		switch e.Kind {
		case sim.RunStart:
			started.Add(1)
		case sim.RunFinish:
			finished.Add(1)
			last.Set(e.App + "/" + e.Org)
			metrics.Init()
			for _, kv := range e.Metrics {
				f := new(expvar.Float)
				f.Set(kv.Value)
				metrics.Set(kv.Name, f)
			}
		}
	})
}

// wallClock returns a monotonic clock for RunEvent.Elapsed stamps. The
// wall time only annotates progress events on stderr; it never reaches
// the rendered tables, which stay a pure function of the seed.
func wallClock() func() time.Duration {
	//nurapidlint:ignore determinism progress wall time never reaches rendered output
	start := time.Now()
	return func() time.Duration {
		//nurapidlint:ignore determinism progress wall time never reaches rendered output
		return time.Since(start)
	}
}

// runSelfcheck differentially drives every policy-matrix cell for a
// short burst against the executable spec. On a divergence it shrinks
// the reproducer, dumps it as JSONL next to the working directory, and
// returns an error so no tables are rendered from a suspect model.
func runSelfcheck(w io.Writer) error {
	const accesses = 2000
	cells := difftest.Matrix()
	workloads := difftest.Workloads()
	fmt.Fprintf(w, "selfcheck: %d cells x %d workloads x %d accesses\n",
		len(cells), len(workloads), accesses)
	for _, cell := range cells {
		for _, wl := range workloads {
			seq := wl.Gen(cell.Cfg, 11, accesses)
			d := difftest.Diff(cell.Cfg, seq, difftest.Options{})
			if d == nil {
				continue
			}
			shrunk := difftest.Shrink(cell.Cfg, seq, difftest.Options{})
			path := fmt.Sprintf("divergence-%s-%s.jsonl", cell.Name, wl.Name)
			f, err := os.Create(path)
			if err == nil {
				err = errors.Join(difftest.WriteArtifact(f, cell.Name, wl.Name, cell.Cfg,
					difftest.Options{}, difftest.Diff(cell.Cfg, shrunk, difftest.Options{}), shrunk), f.Close())
			}
			if err != nil {
				return fmt.Errorf("selfcheck: %s/%s diverged (%s) and artifact dump failed: %w",
					cell.Name, wl.Name, d, err)
			}
			return fmt.Errorf("selfcheck: %s/%s diverged: %s (shrunk reproducer: %s, %d accesses)",
				cell.Name, wl.Name, d, path, len(shrunk))
		}
	}
	fmt.Fprintln(w, "selfcheck: fast implementation and executable spec agree")
	return nil
}

// runReplay replays appName's L2-visible request stream through the
// standard organizations on the sharded trace-gen + chunked-replay
// pipeline, printing each organization's aggregate result and
// fingerprint. The trace is generated once and shared across the four
// replays, which run on a workers-wide pool; the output is a pure
// function of (app, seed, n) and byte-identical at every worker count.
func runReplay(w io.Writer, appName string, seed uint64, n int64, workers int) error {
	app, ok := workload.ByName(appName)
	if !ok {
		return fmt.Errorf("replay: unknown application %q", appName)
	}
	model := cacti.Default()
	orgs := []sim.Organization{
		sim.Base(),
		sim.Ideal(),
		sim.DNUCA(nuca.DefaultConfig()),
		sim.NuRAPID(nurapid.DefaultConfig()),
	}
	jobs := make([]sim.ReplayJob, len(orgs))
	for i, org := range orgs {
		jobs[i] = sim.ReplayJob{App: app, Seed: seed, N: int(n), Org: org}
	}
	results := sim.ReplayAll(model, jobs, sim.ReplayOptions{Workers: workers})
	for _, res := range results {
		if res.Requests == 0 {
			return fmt.Errorf("replay: %s produced no memory requests", appName)
		}
		if err := res.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-24s %016x\n", "fingerprint", res.Fingerprint()); err != nil {
			return err
		}
	}
	return nil
}

// Package sim assembles full-system simulations (workload generator ->
// out-of-order core -> L1s -> lower-level organization -> memory) and
// provides one driver per table and figure of the paper's evaluation.
package sim

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/cpu"
	"nurapid/internal/energy"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
	"nurapid/internal/uca"
	"nurapid/internal/vis"
	"nurapid/internal/workload"
)

// L2Factory builds one lower-level organization against a fresh memory.
type L2Factory func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel

// Organization pairs a short key with a factory; the experiments select
// organizations by key. BlockBytes is the organization's block size, so
// the runner can build a matching memory model; zero means the paper's
// 128-B default.
type Organization struct {
	Key        string
	BlockBytes int
	Factory    L2Factory
}

// blockBytes returns the organization's block size, defaulting to the
// paper's 128 B for hand-built organizations that leave it unset.
func (o Organization) blockBytes() int {
	if o.BlockBytes > 0 {
		return o.BlockBytes
	}
	return uca.BlockBytes
}

// Base returns the conventional L2/L3 hierarchy (the paper's base case).
func Base() Organization {
	return Organization{Key: "base", BlockBytes: uca.BlockBytes, Factory: func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		return uca.NewHierarchy(m, mem)
	}}
}

// Ideal returns the constant-fastest-latency bound of Figure 6.
func Ideal() Organization {
	return Organization{Key: "ideal", BlockBytes: uca.BlockBytes, Factory: func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		return uca.NewIdeal(m, mem)
	}}
}

// NuRAPID returns a NuRAPID organization with the given configuration.
func NuRAPID(cfg nurapid.Config) Organization {
	key := fmt.Sprintf("nurapid-%dg-%s-%s", cfg.NumDGroups, cfg.Promotion, cfg.Distance)
	if cfg.Placement == nurapid.SetAssociative {
		key += "-sa"
	}
	if cfg.RestrictFrames > 0 {
		key += fmt.Sprintf("-r%d", cfg.RestrictFrames)
	}
	if cfg.PromoteHits > 1 {
		key += fmt.Sprintf("-t%d", cfg.PromoteHits)
	}
	if cfg.Memoize {
		key += "-memo"
	}
	if cfg.BlockBytes != 128 {
		key += fmt.Sprintf("-b%d", cfg.BlockBytes)
	}
	return Organization{Key: key, BlockBytes: cfg.BlockBytes, Factory: func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		return nurapid.MustNew(cfg, m, mem)
	}}
}

// DNUCA returns a D-NUCA organization with the given configuration.
func DNUCA(cfg nuca.Config) Organization {
	return Organization{Key: "dnuca-" + cfg.Policy.String(), BlockBytes: nuca.BlockBytes, Factory: func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		return nuca.MustNew(cfg, m, mem)
	}}
}

// RunResult captures everything the experiments need from one run.
type RunResult struct {
	App string
	Org string

	CPU cpu.Result

	L2Dist          *stats.Distribution
	L2Ctrs          stats.Counters
	L2GroupAccesses []int64 // nil for organizations without the concept

	L2EnergyNJ  float64
	MemEnergyNJ float64
	MemAccesses int64

	Energy energy.Breakdown
	ED     float64

	// ObsMetrics holds the snapshots harvested from the run's probes
	// (WithProbe / WithTrace); nil when the run was not probed.
	ObsMetrics []stats.KV
}

// Snapshot emits the run's headline metrics plus the nested CPU summary
// (statsreg convention: every counter field must appear here).
func (r *RunResult) Snapshot() []stats.KV {
	core := r.CPU.Snapshot()
	out := make([]stats.KV, 0, 4+len(core)+len(r.ObsMetrics))
	out = append(out,
		stats.KV{Name: "l2_energy_nj", Value: r.L2EnergyNJ},
		stats.KV{Name: "mem_energy_nj", Value: r.MemEnergyNJ},
		stats.KV{Name: "mem_accesses", Value: float64(r.MemAccesses)},
		stats.KV{Name: "energy_delay", Value: r.ED},
	)
	for _, kv := range core {
		out = append(out, stats.KV{Name: stats.Name("cpu_", kv.Name), Value: kv.Value})
	}
	for _, kv := range r.ObsMetrics {
		out = append(out, stats.KV{Name: stats.Name("obs_", kv.Name), Value: kv.Value})
	}
	return out
}

// Runner executes and memoizes simulations so experiments sharing a
// configuration (every figure needs the base runs) pay for it once.
// NewRunner and its options set its configuration.
//
// A Runner is safe for concurrent use: the memo is singleflight — the
// first caller for a (app, org) key executes the simulation, concurrent
// callers for the same key block until that one result is ready, and
// later callers get it instantly. Each experiment prefetches its full
// run set onto the worker pool (WithWorkers; the pool's lane records
// each app's front end while the workers time the app before it) and
// then assembles its table from completed results in deterministic
// order, so the rendered output is byte-identical at every worker count
// for the same seed. A Run or RunCMP outside an experiment is a
// prefetch of that one run, so every run takes the same path.
type Runner struct {
	model        *cacti.Model
	instructions int64
	seed         uint64
	apps         []workload.App

	// workers bounds the pool executing prefetched runs.
	workers int

	// cores is the core count for CMP runs (RunCMP / the cmp
	// experiment); <= 0 means 2. Single-core experiments ignore it.
	cores int
	// sharing is the CMP workload sharing pattern (zero value: shared).
	sharing cmp.Sharing

	observer Observer
	obsMu    sync.Mutex
	clock    func() time.Duration

	probe    ProbeFactory
	traceDir string
	probeMu  sync.Mutex
	probeErr error

	// mu guards the memos, which NewRunner makes.
	mu      sync.Mutex
	memo    map[string]*memoCell[*RunResult]
	cmpMemo map[string]*memoCell[*CMPRunResult]

	// fronts overrides the process-wide front-end cache (frontEnds);
	// nil uses it. Tests set a private one to observe its bookkeeping.
	fronts *producers[[]*cpu.Stream]
}

// frontEnds holds the recorded front ends that runs time, one set per
// frontKey: a single-core run's stream (cpu.Stream) as a one-element
// set, a CMP run's fronts (cmp.RecordFronts). Each set is recorded once
// for every organization the app runs on. A set depends on nothing else
// — not the Runner's model or organizations, and every Runner uses the
// Table 1 core — so the cache is shared by all Runners in the process:
// a program that builds a Runner per experiment (or per benchmark
// iteration) reuses the same buffers instead of allocating them per
// Runner. With no run in flight it holds at most maxFree spare sets.
var frontEnds producers[[]*cpu.Stream]

// frontEnds returns the Runner's front-end cache.
func (r *Runner) frontEnds() *producers[[]*cpu.Stream] {
	if r.fronts != nil {
		return r.fronts
	}
	return &frontEnds
}

// memoCell is one singleflight slot: the caller that creates it
// executes the run, and every caller of the key waits on done. res is
// written before done closes; panicked latches a panic escaping the
// one execution, so every caller of the key — executor and waiters
// alike — re-raises the original panic instead of reading a nil result.
type memoCell[T any] struct {
	done     chan struct{}
	res      T
	panicked any
}

// result waits for the cell's run and returns its result, re-raising
// its panic under the run's key.
func (c *memoCell[T]) result(key string) T {
	<-c.done
	if c.panicked != nil {
		panic(fmt.Sprintf("sim: run %s panicked: %v", key, c.panicked))
	}
	return c.res
}

// emit delivers an event to the observer, serialized so observers need
// no locking of their own.
func (r *Runner) emit(e RunEvent) {
	if r.observer == nil {
		return
	}
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	r.observer.Observe(e)
}

// now reads the injected clock, or returns zero without one.
func (r *Runner) now() time.Duration {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// runOnce is the one job lifecycle behind every memoized run, single-
// core and CMP alike. It executes job exactly once per key in memo,
// concurrent duplicates included, and emits start/finish events around
// that one execution; job returns the result and its finish event's
// metrics, and runOnce stamps the identity and the clock's elapsed
// time, less the job's fin.FrontEnd. The job runs under pprof labels
// {app, org, phase=run}. A panic inside job is
// recovered, latched on the cell, and re-raised from every caller of
// the key — releasing concurrent singleflight waiters with the real
// failure instead of a nil result.
func runOnce[T any](r *Runner, memo map[string]*memoCell[T], key, app, org string, job func() (T, RunEvent)) T {
	r.mu.Lock()
	c, ok := memo[key]
	if !ok {
		c = &memoCell[T]{done: make(chan struct{})}
		memo[key] = c
	}
	r.mu.Unlock()
	if !ok {
		func() {
			defer func() {
				c.panicked = recover()
				close(c.done)
			}()
			r.emit(RunEvent{Kind: RunStart, App: app, Org: org})
			start := r.now()
			var fin RunEvent
			pprof.Do(context.Background(), pprof.Labels("app", app, "org", org, "phase", "run"), func(context.Context) {
				c.res, fin = job()
			})
			fin.Kind, fin.App, fin.Org, fin.Elapsed = RunFinish, app, org, r.now()-start-fin.FrontEnd
			r.emit(fin)
		}()
	}
	return c.result(key)
}

// memoized returns the result of key's run, which has started, once it
// is done, re-raising its panic.
func memoized[T any](r *Runner, memo map[string]*memoCell[T], key string) T {
	r.mu.Lock()
	c := memo[key]
	r.mu.Unlock()
	return c.result(key)
}

// runKey names a run in the memo: its app and its organization's key
// (or, for a CMP run, its cmp label).
func runKey(app, org string) string { return app + "/" + org }

// Run simulates app on org, memoized on (app, org key): a call outside
// an experiment prefetches that one run, on the same pool and lane as
// a campaign, so the lane records app's front end (cpu.Stream) and
// retires it after the run, unless another run already holds it. The
// core replays that recorded stream, which every organization of the
// app shares; the result is identical to running the core on the live
// front end. A memoized run is only looked up.
func (r *Runner) Run(app workload.App, org Organization) *RunResult {
	r.prefetch(runSet{apps: []workload.App{app}, orgs: []Organization{org}})
	return memoized(r, r.memo, runKey(app.Name, org.Key))
}

// run executes app on org, memoized, timing the front end fe that
// prefetch's schedule planned for it.
func (r *Runner) run(app workload.App, org Organization, fe *shared[[]*cpu.Stream]) *RunResult {
	return runOnce(r, r.memo, runKey(app.Name, org.Key), app.Name, org.Key, func() (*RunResult, RunEvent) {
		mem := memsys.NewMemory(org.blockBytes())
		l2 := org.Factory(r.model, mem)
		probe := r.instrument(app.Name, org.Key, l2, nil)
		core := cpu.MustNew(l2, cpu.WithL1EnergyNJ(r.model.L1NJ))
		stream, frontEnd := r.waitFrontEnd(fe)
		cres := core.RunStream(stream[0])

		params := energy.DefaultParams(r.model)
		bd := params.Collect(cres.Cycles, cres.Instructions,
			cres.L1DAccesses+cres.L1IAccesses, l2.EnergyNJ(), mem.EnergyNJ())

		res := &RunResult{
			App:         app.Name,
			Org:         org.Key,
			CPU:         cres,
			L2Dist:      l2.Distribution(),
			L2EnergyNJ:  l2.EnergyNJ(),
			MemEnergyNJ: mem.EnergyNJ(),
			MemAccesses: mem.Accesses,
			Energy:      bd,
			ED:          energy.EnergyDelay(bd.TotalNJ(), cres.Cycles),
		}
		for _, name := range l2.Counters().Names() {
			res.L2Ctrs.Add(name, l2.Counters().Get(name))
		}
		if nc, ok := l2.(*nurapid.Cache); ok {
			res.L2GroupAccesses = nc.GroupAccesses()
		}
		res.ObsMetrics = r.finishProbe(probe)
		release(l2)
		return res, RunEvent{IPC: cres.IPC, APKI: cres.APKI, HasAPKI: true, Metrics: res.Snapshot(), FrontEnd: frontEnd}
	})
}

// release hands l2's storage back to the process-wide free lists when
// it has any (memsys.Releaser), once its results are harvested.
func release(l2 memsys.LowerLevel) {
	if rl, ok := l2.(memsys.Releaser); ok {
		rl.Release()
	}
}

// waitFrontEnd waits for fe, a run's planned front end — its stream
// as a one-element set, or its CMP fronts —, and returns its value and
// the time spent waiting (the RunEvent.FrontEnd of the run).
func (r *Runner) waitFrontEnd(fe *shared[[]*cpu.Stream]) ([]*cpu.Stream, time.Duration) {
	t0 := r.now()
	val := fe.wait()
	return val, r.now() - t0
}

// frontKey names app's front end: its stream, or its CMP fronts, which
// also depend on the core count and sharing pattern.
func (r *Runner) frontKey(app workload.App, cmpRun bool) streamKey {
	k := streamKey{app: app, seed: r.seed, n: r.instructions}
	if cmpRun {
		k.cores, k.sharing = r.cmpCores(), r.sharing
	}
	return k
}

// recorder records app's front end for the paper's Table 1 core into a
// recycled set (or a new one): its stream, or its CMP fronts when
// cmpRun is set.
func (r *Runner) recorder(app workload.App, cmpRun bool) func([]*cpu.Stream) []*cpu.Stream {
	return func(reuse []*cpu.Stream) []*cpu.Stream {
		var set []*cpu.Stream
		if cmpRun {
			srcs, err := cmp.Config{Cores: r.cmpCores(), Sharing: r.sharing}.Sources(app, r.seed)
			if err != nil {
				panic(fmt.Sprintf("sim: cmp sources failed: %v", err))
			}
			set = cmp.RecordFronts(srcs, r.instructions, reuse)
		} else {
			if len(reuse) == 0 {
				reuse = []*cpu.Stream{{}}
			}
			set = reuse[:1]
			if err := set[0].Record(workload.MustNewGenerator(app, r.seed), r.instructions, cpu.DefaultConfig()); err != nil {
				panic(fmt.Sprintf("sim: recording %s: %v", app.Name, err))
			}
		}
		// A set recycled from a wider one (a private CMP run's fronts)
		// still points at that one's other members past its length. No
		// recording reads them again (RecordFronts appends new streams
		// when it needs more), so drop them rather than hold their
		// buffers.
		clear(set[len(set):cap(set)])
		return set
	}
}

// l2NJPerKInstr is the run's L2 dynamic energy per 1000 instructions.
func (res *RunResult) l2NJPerKInstr() float64 {
	return res.L2EnergyNJ * 1000 / float64(res.CPU.Instructions)
}

// RelPerf returns org's performance relative to the base hierarchy for
// app (cycles_base / cycles_org; > 1 means faster than base).
func (r *Runner) RelPerf(app workload.App, org Organization) float64 {
	base := r.Run(app, Base())
	o := r.Run(app, org)
	if o.CPU.Cycles == 0 {
		return 0
	}
	return float64(base.CPU.Cycles) / float64(o.CPU.Cycles)
}

// Experiment is one regenerated table or figure: a printable table plus
// the headline metrics benches and EXPERIMENTS.md report, and (for the
// figures) a text chart in the paper's visual style.
type Experiment struct {
	ID      string
	Caption string
	Table   *stats.Table
	// Chart, when non-nil, renders the figure's series as a text chart.
	Chart vis.Chart
	// Metrics holds the experiment's headline numbers, keyed by a short
	// slug (e.g. "avg_rel_perf_next_fastest").
	Metrics map[string]float64
}

// Render writes the experiment the way cmd/experiments prints it: the
// table (aligned text, or CSV when csv is set), the chart (text mode
// only), and the headline metrics sorted by key. For a fixed Runner seed
// the bytes written are identical across runs — a tested guarantee
// (determinism_test.go) that keeps regenerated tables diffable.
func (e *Experiment) Render(w io.Writer, csv bool) error {
	if csv {
		if err := e.Table.WriteCSV(w); err != nil {
			return err
		}
	} else {
		if err := e.Table.WriteText(w); err != nil {
			return err
		}
		if e.Chart != nil {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := e.Chart.Render(w); err != nil {
				return err
			}
		}
	}
	if len(e.Metrics) > 0 {
		if _, err := fmt.Fprintln(w, "headline metrics:"); err != nil {
			return err
		}
		keys := make([]string, 0, len(e.Metrics))
		for k := range e.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "  %-32s %.4f\n", k, e.Metrics[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// standard NuRAPID configurations used across experiments.
func nurapidCfg(groups int, prom nurapid.Promotion, dist nurapid.DistancePolicy) nurapid.Config {
	cfg := nurapid.DefaultConfig()
	cfg.NumDGroups = groups
	cfg.Promotion = prom
	cfg.Distance = dist
	return cfg
}

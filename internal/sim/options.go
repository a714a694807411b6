package sim

import (
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/workload"
)

// Option configures a Runner at construction time.
type Option func(*Runner)

// NewRunner builds a runner with the paper's defaults — the calibrated
// 70-nm model, 2M instructions per run, seed 1, the 15-application
// roster, serial execution — overridden by the given options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{
		model:        cacti.Default(),
		instructions: 2_000_000,
		seed:         1,
		apps:         workload.Apps(),
		workers:      1,
		memo:         map[string]*memoCell[*RunResult]{},
		cmpMemo:      map[string]*memoCell[*CMPRunResult]{},
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// WithInstructions sets the number of instructions simulated per run.
func WithInstructions(n int64) Option {
	return func(r *Runner) { r.instructions = n }
}

// WithSeed sets the workload seed. Rendered output is a pure function of
// the seed (and the run parameters), regardless of worker count.
func WithSeed(seed uint64) Option {
	return func(r *Runner) { r.seed = seed }
}

// WithWorkers bounds the worker pool that executes runs, the calling
// goroutine included. n <= 1 is a pool of one: the caller runs the runs
// in submission order while the pool's front-end lane records the next
// app's front end. The schedule and the rendered output are the same at
// every n.
func WithWorkers(n int) Option {
	return func(r *Runner) { r.workers = n }
}

// WithModel substitutes the physical timing/energy model.
func WithModel(m *cacti.Model) Option {
	return func(r *Runner) { r.model = m }
}

// WithApps replaces the application roster.
func WithApps(apps ...workload.App) Option {
	return func(r *Runner) { r.apps = apps }
}

// WithObserver attaches an observer for run lifecycle events. The
// Runner serializes Observe calls, so the observer needs no locking.
func WithObserver(o Observer) Option {
	return func(r *Runner) { r.observer = o }
}

// WithProbe attaches a per-run probe factory. The factory is called
// once per executed (non-memoized) simulation; the returned probe is
// wired into the lower-level organization (obs.Probeable) before the
// run and its Snapshot, if it has one, lands in RunResult.ObsMetrics
// afterwards. A nil factory or a factory returning nil keeps the
// organization's nil-probe fast path, so disabled probing costs one
// pointer compare per emission site.
func WithProbe(f ProbeFactory) Option {
	return func(r *Runner) { r.probe = f }
}

// WithTrace writes one JSONL event trace per executed run into dir,
// named <app>__<org>.jsonl. The directory must exist. Traces compose
// with WithProbe (both receive every event). File-creation and flush
// errors never abort a run; check Runner.ProbeErr after the experiment.
func WithTrace(dir string) Option {
	return func(r *Runner) { r.traceDir = dir }
}

// WithClock supplies a monotonic clock used only to stamp
// RunEvent.Elapsed. The default (nil) leaves Elapsed zero, keeping the
// sim package free of wall-clock reads; callers that want real timings
// (cmd/experiments) inject one.
func WithClock(now func() time.Duration) Option {
	return func(r *Runner) { r.clock = now }
}

// Package nurapid is a simulation library reproducing "Distance
// Associativity for High-Performance Energy-Efficient Non-Uniform Cache
// Architectures" (Chishti, Powell, Vijaykumar; MICRO 2003).
//
// The package re-exports the repository's public surface:
//
//   - the NuRAPID cache itself (distance-associative placement with
//     forward/reverse pointers, distance replacement, promotion
//     policies), via New;
//   - the baselines the paper compares against: the D-NUCA dynamic
//     non-uniform cache (NewDNUCA) and the conventional L2/L3 hierarchy
//     (NewBaseHierarchy);
//   - the synthetic SPEC2K-like workload models and trace format;
//   - the cycle-level out-of-order core that drives full-system runs;
//   - the experiment Runner that regenerates every table and figure of
//     the paper's evaluation.
//
// Quick start:
//
//	cache, mem, err := nurapid.New(nurapid.DefaultConfig())
//	if err != nil { ... }
//	r := cache.Access(nurapid.Req{Now: 0, Addr: 0x1000_0000}) // cycle 0, read
//	_ = mem                                                    // backing memory model
//
// Full-system comparison (parallel across all cores, byte-identical
// output to a serial run at the same seed):
//
//	runner := nurapid.NewRunner(
//		nurapid.WithInstructions(2_000_000),
//		nurapid.WithSeed(1),
//		nurapid.WithWorkers(runtime.GOMAXPROCS(0)),
//	)
//	fig9 := runner.Fig9() // NuRAPID vs D-NUCA, paper Figure 9
//	fig9.Table.WriteText(os.Stdout)
package nurapid

import (
	"io"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	core "nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/sim"
	"nurapid/internal/uca"
	"nurapid/internal/workload"
)

// Core NuRAPID types.
type (
	// Config parameterizes a NuRAPID cache (capacity, d-groups,
	// promotion and distance-replacement policies, placement mode).
	Config = core.Config
	// Cache is the NuRAPID cache: a centralized set-associative tag
	// array with forward pointers into a few large distance-groups.
	Cache = core.Cache
	// Promotion selects what happens when a block hits outside the
	// fastest d-group.
	Promotion = core.Promotion
	// DistancePolicy selects the distance-replacement victim policy.
	DistancePolicy = core.DistancePolicy
	// Placement selects decoupled (distance-associative) or coupled
	// (set-associative) data placement.
	Placement = core.Placement
)

// Promotion policies (paper Sec. 2.4.1).
const (
	DemotionOnly = core.DemotionOnly
	NextFastest  = core.NextFastest
	Fastest      = core.Fastest
)

// Distance-replacement victim policies (paper Sec. 2.4.2).
const (
	RandomDistance = core.RandomDistance
	LRUDistance    = core.LRUDistance
)

// Placement modes (paper Sec. 2.1 and Figure 4).
const (
	DistanceAssociative = core.DistanceAssociative
	SetAssociative      = core.SetAssociative
)

// Memory-system types shared by all organizations.
type (
	// Memory is the fixed-latency main-memory model.
	Memory = memsys.Memory
	// Req is one lower-level cache request (issue cycle, block address,
	// direction, requesting core).
	Req = memsys.Req
	// AccessResult reports one lower-level cache access.
	AccessResult = memsys.AccessResult
	// LowerLevel is the interface all L2 organizations implement.
	LowerLevel = memsys.LowerLevel
)

// Baseline organizations.
type (
	// DNUCAConfig selects the D-NUCA baseline's search policy, its only
	// setting: the geometry is the paper's, fixed (8 MB, 128-B blocks,
	// 16-way, 128 64-KB banks, 8 latency groups, 7-bit partial tags).
	DNUCAConfig = nuca.Config
	// DNUCA is the dynamic non-uniform cache baseline (Kim et al.).
	DNUCA = nuca.Cache
	// SearchPolicy selects D-NUCA's lookup strategy.
	SearchPolicy = nuca.SearchPolicy
	// Hierarchy is the conventional L2/L3 baseline.
	Hierarchy = uca.Hierarchy
)

// D-NUCA search policies.
const (
	SSPerformance = nuca.SSPerformance
	SSEnergy      = nuca.SSEnergy
)

// Workload types.
type (
	// App is one modeled SPEC2K-like benchmark.
	App = workload.App
	// Generator synthesizes an instruction stream for one App.
	Generator = workload.Generator
	// Instr is one dynamic instruction.
	Instr = workload.Instr
	// Source produces a dynamic instruction stream.
	Source = workload.Source
)

// CMP (multi-core) types. The CMP front end is the repository's
// extension beyond the paper's single-core evaluation: N cores with
// private L1s share one lower-level organization through a
// deterministic bank-queue model with coherence-lite invalidation.
type (
	// CMPConfig parameterizes a multi-core system (cores, sharing
	// pattern, queue model).
	CMPConfig = cmp.Config
	// CMPSystem is N lockstep cores over one shared lower level.
	CMPSystem = cmp.System
	// CMPResult summarizes one multi-core run (per-core results,
	// aggregate IPC, Jain fairness, contention stalls).
	CMPResult = cmp.Result
	// CMPQueueConfig parameterizes the shared-L2 bank queues.
	CMPQueueConfig = cmp.QueueConfig
	// Sharing selects the CMP workload pattern (SharedWorkloads or
	// PrivateWorkloads).
	Sharing = cmp.Sharing
	// CMPRunResult captures one memoized multi-core Runner simulation.
	CMPRunResult = sim.CMPRunResult
)

// CMP workload sharing patterns.
const (
	// SharedWorkloads gives every core the identical address stream.
	SharedWorkloads = cmp.Shared
	// PrivateWorkloads gives each core a disjoint address space.
	PrivateWorkloads = cmp.Private
)

// NewCMP builds a multi-core system over the shared organization l2.
func NewCMP(l2 LowerLevel, cfg CMPConfig) (*CMPSystem, error) {
	return cmp.New(l2, cfg)
}

// WithCores sets the core count for the Runner's CMP experiment.
func WithCores(n int) RunnerOption { return sim.WithCores(n) }

// WithSharing selects the CMP workload sharing pattern.
func WithSharing(s Sharing) RunnerOption { return sim.WithSharing(s) }

// CPU types.
type (
	// CPUConfig sets the out-of-order core's structural parameters.
	CPUConfig = cpu.Config
	// CPU is the cycle-level out-of-order core model.
	CPU = cpu.CPU
	// CPUResult summarizes one simulation run.
	CPUResult = cpu.Result
)

// Experiment-harness types.
type (
	// Runner executes and memoizes full-system simulations; it is safe
	// for concurrent use (singleflight memo + bounded worker pool).
	Runner = sim.Runner
	// Experiment is one regenerated table or figure.
	Experiment = sim.Experiment
	// Organization pairs a name with an L2 factory.
	Organization = sim.Organization
	// RunResult captures one full-system run.
	RunResult = sim.RunResult
	// RunnerOption configures a Runner at construction time.
	RunnerOption = sim.Option
	// Observer receives run lifecycle events from a Runner.
	Observer = sim.Observer
	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = sim.ObserverFunc
	// RunEvent is one run lifecycle event.
	RunEvent = sim.RunEvent
	// EventKind distinguishes start and finish events.
	EventKind = sim.EventKind
	// ProbeFactory builds one microarchitectural probe per executed run.
	ProbeFactory = sim.ProbeFactory
	// Probe receives microarchitectural events from a cache organization.
	Probe = obs.Probe
	// ProbeEvent is one microarchitectural event.
	ProbeEvent = obs.Event
	// ProbeCollector aggregates probe events into counters + histograms.
	ProbeCollector = obs.Collector
	// OccupancySampler samples per-d-group occupancy once per epoch.
	OccupancySampler = obs.Sampler
	// TraceSink streams probe events as JSONL.
	TraceSink = obs.TraceSink
)

// Run lifecycle event kinds.
const (
	RunStart  = sim.RunStart
	RunFinish = sim.RunFinish
)

// DefaultConfig returns the paper's primary NuRAPID design: 8 MB, 8-way,
// 128-B blocks, 4 d-groups, next-fastest promotion, random distance
// replacement.
func DefaultConfig() Config { return core.DefaultConfig() }

// New builds a NuRAPID cache (with latencies and energies from the
// calibrated 70-nm model) backed by a fresh main-memory model, which is
// returned alongside for energy/latency inspection.
func New(cfg Config) (*Cache, *Memory, error) {
	mem := memsys.NewMemory(cfg.BlockBytes)
	c, err := core.New(cfg, cacti.Default(), mem)
	if err != nil {
		return nil, nil, err
	}
	return c, mem, nil
}

// DefaultDNUCAConfig returns the paper's optimal D-NUCA baseline: 8 MB,
// 16-way, 128 64-KB banks, 8 latency groups per set, ss-performance.
func DefaultDNUCAConfig() DNUCAConfig { return nuca.DefaultConfig() }

// NewDNUCA builds the D-NUCA baseline backed by a fresh memory model.
func NewDNUCA(cfg DNUCAConfig) (*DNUCA, *Memory, error) {
	mem := memsys.NewMemory(nuca.BlockBytes)
	c, err := nuca.New(cfg, cacti.Default(), mem)
	if err != nil {
		return nil, nil, err
	}
	return c, mem, nil
}

// NewBaseHierarchy builds the conventional 1-MB-L2 + 8-MB-L3 baseline
// backed by a fresh memory model with the hierarchy's own block size.
func NewBaseHierarchy() (*Hierarchy, *Memory) {
	mem := memsys.NewMemory(uca.BlockBytes)
	return uca.NewHierarchy(cacti.Default(), mem), mem
}

// Apps returns the 15-application workload roster (paper Table 3).
func Apps() []App { return workload.Apps() }

// AppByName finds a workload model by name.
func AppByName(name string) (App, bool) { return workload.ByName(name) }

// NewGenerator builds a deterministic instruction-stream generator.
func NewGenerator(app App, seed uint64) (*Generator, error) {
	return workload.NewGenerator(app, seed)
}

// DefaultCPUConfig returns the paper's Table 1 core parameters.
func DefaultCPUConfig() CPUConfig { return cpu.DefaultConfig() }

// NewCPU builds an out-of-order core driving the given lower level.
func NewCPU(cfg CPUConfig, l2 LowerLevel) (*CPU, error) {
	return cpu.New(l2, cpu.WithConfig(cfg), cpu.WithL1EnergyNJ(cacti.Default().L1NJ))
}

// NewRunner builds an experiment runner: by default the calibrated
// 70-nm model, 2M instructions per run, seed 1, the full application
// roster, and serial execution; override with the With* options. With
// WithWorkers(n > 1), experiments fan their run set onto a bounded
// worker pool while rendered output stays byte-identical to a serial
// run at the same seed.
func NewRunner(opts ...RunnerOption) *Runner {
	return sim.NewRunner(opts...)
}

// Runner construction options.

// WithInstructions sets the number of instructions simulated per run.
func WithInstructions(n int64) RunnerOption { return sim.WithInstructions(n) }

// WithSeed sets the workload seed; rendered output is a pure function
// of the seed and run parameters, regardless of worker count.
func WithSeed(seed uint64) RunnerOption { return sim.WithSeed(seed) }

// WithWorkers bounds the worker pool; n <= 1 selects serial execution.
func WithWorkers(n int) RunnerOption { return sim.WithWorkers(n) }

// WithApps replaces the application roster.
func WithApps(apps ...App) RunnerOption { return sim.WithApps(apps...) }

// WithObserver attaches a structured observer for run events.
func WithObserver(o Observer) RunnerOption { return sim.WithObserver(o) }

// WithProbe attaches a per-run microarchitectural probe factory.
func WithProbe(f ProbeFactory) RunnerOption { return sim.WithProbe(f) }

// WithTrace writes one JSONL event trace per executed run into dir.
func WithTrace(dir string) RunnerOption { return sim.WithTrace(dir) }

// WithModel substitutes the physical timing/energy model (for example
// DefaultModel().Scaled(1.5) for slower wires).
func WithModel(m *Model) RunnerOption { return sim.WithModel(m) }

// Model is the calibrated timing/energy model behind every
// organization (latencies, per-access energies, wire scaling).
type Model = cacti.Model

// DefaultModel returns the calibrated 70-nm model.
func DefaultModel() *Model { return cacti.Default() }

// TextObserver renders each completed run as a one-line progress
// message on w (the cmd/experiments stderr format).
func TextObserver(w io.Writer) Observer { return sim.TextObserver(w) }

// Organization constructors for the Runner.

// Base returns the conventional hierarchy organization.
func Base() Organization { return sim.Base() }

// Ideal returns the constant-fastest-latency bound.
func Ideal() Organization { return sim.Ideal() }

// NuRAPIDOrg returns a NuRAPID organization for the Runner.
func NuRAPIDOrg(cfg Config) Organization { return sim.NuRAPID(cfg) }

// DNUCAOrg returns a D-NUCA organization for the Runner.
func DNUCAOrg(cfg DNUCAConfig) Organization { return sim.DNUCA(cfg) }

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
//   - the synthetic SPEC2K-like workload models;
//   - the out-of-order core that drives full-system runs (NewCPU);
//   - the experiment Runner that regenerates every table and figure of
//     the paper's evaluation (NewRunner).
//
// The package examples are the quick start: ExampleNew issues single
// accesses, Example_hotSet reproduces the paper's motivating hot-set
// problem, ExamplePromotion compares the promotion policies, and
// ExampleNewCPU replays one recorded trace through all three
// organizations. `go test -run Example -v .` runs them and checks what
// they print.
package nurapid

import (
	"nurapid/internal/cacti"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	core "nurapid/internal/nurapid"
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

// LRUDistance selects true-LRU distance replacement (paper Sec. 2.4.2)
// instead of the default random victim.
const LRUDistance = core.LRUDistance

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
	// Hierarchy is the conventional L2/L3 baseline.
	Hierarchy = uca.Hierarchy
)

// Workload types.
type (
	// App is one modeled SPEC2K-like benchmark.
	App = workload.App
	// Generator synthesizes an instruction stream for one App.
	Generator = workload.Generator
)

// CPU types.
type (
	// CPUConfig sets the out-of-order core's structural parameters.
	CPUConfig = cpu.Config
	// CPU is the out-of-order core model.
	CPU = cpu.CPU
)

// Experiment-harness types.
type (
	// Runner executes and memoizes full-system simulations; it is safe
	// for concurrent use (singleflight memo + bounded worker pool).
	Runner = sim.Runner
	// Organization pairs a name with an L2 factory.
	Organization = sim.Organization
	// RunResult captures one full-system run.
	RunResult = sim.RunResult
	// RunnerOption configures a Runner at construction time.
	RunnerOption = sim.Option
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
// roster, and serial execution; override with the With* options.
func NewRunner(opts ...RunnerOption) *Runner {
	return sim.NewRunner(opts...)
}

// Runner construction options.

// WithInstructions sets the number of instructions simulated per run.
func WithInstructions(n int64) RunnerOption { return sim.WithInstructions(n) }

// WithSeed sets the workload seed; rendered output is a pure function
// of the seed and run parameters.
func WithSeed(seed uint64) RunnerOption { return sim.WithSeed(seed) }

// WithApps replaces the application roster.
func WithApps(apps ...App) RunnerOption { return sim.WithApps(apps...) }

// Organization constructors for the Runner.

// Base returns the conventional hierarchy organization.
func Base() Organization { return sim.Base() }

// Ideal returns the constant-fastest-latency bound.
func Ideal() Organization { return sim.Ideal() }

// NuRAPIDOrg returns a NuRAPID organization for the Runner.
func NuRAPIDOrg(cfg Config) Organization { return sim.NuRAPID(cfg) }

// DNUCAOrg returns a D-NUCA organization for the Runner.
func DNUCAOrg(cfg DNUCAConfig) Organization { return sim.DNUCA(cfg) }

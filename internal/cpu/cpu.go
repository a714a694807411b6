// Package cpu is a simplified out-of-order core in the role SimpleScalar
// played for the paper, with the paper's Table 1 structural parameters:
// 8-wide issue, a 64-entry instruction window (RUU), a 32-entry
// load/store queue, pipelined 3-cycle 64-KB 2-way L1s, 8 MSHRs, a hybrid
// branch predictor folded into the workload's misprediction stream, and
// a 9-cycle redirect penalty.
//
// The model captures the first-order effects the evaluation depends on:
// how much L2 latency the out-of-order window hides, how the MSHRs bound
// memory-level parallelism, and how L2 port occupancy feeds back into
// the pipeline. Instructions dispatch in order into the window, complete
// at computed times, and commit in order.
//
// Because dispatch and commit are in order and every completion time is
// known at dispatch, each instruction's dispatch and commit cycle follow
// exactly from a few earlier ones. The core has one timing engine, which
// computes them one instruction at a time (backend.go), so a run costs
// per instruction, not per simulated cycle. Run and RunStream time one
// core from a recorded front end; Lockstep (lockstep.go) times several
// cores over one shared level from recorded fronts on their live L1Ds,
// for the multi-core system (internal/cmp). The tests hold both to a cycle-stepped
// reference core, Result and lower-level request stream alike.
package cpu

import (
	"fmt"

	"nurapid/internal/cache"
	"nurapid/internal/memsys"
	"nurapid/internal/stats"
)

// Config sets the core's structural parameters.
type Config struct {
	Width             int   // fetch/dispatch/commit width
	ROB               int   // instruction window (paper: RUU 64)
	LSQ               int   // in-flight memory instructions
	MSHRs             int   // outstanding L1 misses
	MispredictPenalty int64 // redirect bubble in cycles
	L1Latency         int64 // L1 hit latency
	L1Geometry        cache.Geometry
	FetchBytes        int // bytes per fetch block (I-cache access unit)
}

// DefaultConfig returns the paper's Table 1 core.
func DefaultConfig() Config {
	return Config{
		Width:             8,
		ROB:               64,
		LSQ:               32,
		MSHRs:             8,
		MispredictPenalty: 9,
		L1Latency:         3,
		L1Geometry:        cache.Geometry{CapacityBytes: 64 << 10, BlockBytes: 32, Assoc: 2},
		FetchBytes:        32,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.LSQ <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cpu: non-positive structure size in %+v", c)
	}
	if c.Width > maxEntries || c.ROB > maxEntries || c.LSQ > maxEntries {
		return fmt.Errorf("cpu: width, window and LSQ are capped at %d entries in %+v", maxEntries, c)
	}
	if c.L1Latency <= 0 || c.MispredictPenalty < 0 {
		return fmt.Errorf("cpu: bad latency/penalty in %+v", c)
	}
	if c.FetchBytes <= 0 || c.FetchBytes&(c.FetchBytes-1) != 0 {
		return fmt.Errorf("cpu: fetch block %d bytes is not a positive power of two", c.FetchBytes)
	}
	return c.L1Geometry.Validate()
}

// Result summarizes one simulation run.
type Result struct {
	Instructions int64
	Cycles       int64
	IPC          float64

	L1DAccesses, L1DMisses int64
	L1IAccesses, L1IMisses int64
	L2Accesses             int64
	L1DInvals              int64   // private-L1 lines shot down by coherence-lite
	APKI                   float64 // L2 accesses per 1000 instructions

	L1EnergyNJ float64
}

// Snapshot emits every metric of the run summary (statsreg convention:
// every counter field must appear here).
func (r Result) Snapshot() []stats.KV {
	return []stats.KV{
		{Name: "instructions", Value: float64(r.Instructions)},
		{Name: "cycles", Value: float64(r.Cycles)},
		{Name: "ipc", Value: r.IPC},
		{Name: "l1d_accesses", Value: float64(r.L1DAccesses)},
		{Name: "l1d_misses", Value: float64(r.L1DMisses)},
		{Name: "l1i_accesses", Value: float64(r.L1IAccesses)},
		{Name: "l1i_misses", Value: float64(r.L1IMisses)},
		{Name: "l2_accesses", Value: float64(r.L2Accesses)},
		{Name: "l1d_invals", Value: float64(r.L1DInvals)},
		{Name: "apki", Value: r.APKI},
		{Name: "l1_energy_nj", Value: r.L1EnergyNJ},
	}
}

// CPU drives a workload through the L1s and the lower-level organization
// under test, timing it one instruction at a time (backend.go). Run and
// RunStream time a recorded front end (frontend.go): a Stream, or for
// Run chunks of the source recorded as the run goes. Lockstep times
// several cores together from fronts, on their live L1Ds (lockstep.go).
type CPU struct {
	cfg  Config
	fe   frontEnd
	mshr *cache.MSHRFile
	l2   memsys.LowerLevel
	l1NJ float64
	ran  bool // a run has started: a core runs once

	// The timing engine: the cycle rings, the common codes' timing
	// table, the loop state and Run's recording buffer.
	ring       [ringSize]slot  // instruction j's dispatch and commit cycles at j&ringMask
	memCommits [ringSize]int64 // the k-th load or store's commit cycle at k&ringMask
	codeTab    [16]codeTiming
	tm         timing
	timed      int // instructions timed so far
	chunk      Stream

	// The run summary.
	cycle                  int64
	committed              int64
	l1dAccesses, l1dMisses int64
	l1iAccesses, l1iMisses int64
	l2Accesses             int64
	l1dInvals              int64 // coherence-lite shoot-downs absorbed
}

// Option configures a CPU at construction (sim.NewRunner style).
type Option func(*CPU)

// WithConfig sets the core's structural parameters (default:
// DefaultConfig).
func WithConfig(cfg Config) Option { return func(c *CPU) { c.cfg = cfg } }

// WithL1EnergyNJ sets the per-access L1 energy (Table 2's 0.57 nJ for 2
// ports; default 0 — timing only).
func WithL1EnergyNJ(nj float64) Option { return func(c *CPU) { c.l1NJ = nj } }

// New builds a CPU around the given lower-level cache; options default
// to the paper's Table 1 core with zero L1 energy. Every lower-level
// request carries core 0; a CMP front end (internal/cmp) restamps it.
// A CPU runs one workload, once: by Run, RunStream or Lockstep.
func New(l2 memsys.LowerLevel, opts ...Option) (*CPU, error) {
	c := &CPU{cfg: DefaultConfig(), l2: l2}
	for _, o := range opts {
		o(c)
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, err
	}
	c.mshr = cache.NewMSHRFile(c.cfg.MSHRs)
	c.initEngine()
	return c, nil
}

// MustNew panics on configuration errors.
func MustNew(l2 memsys.LowerLevel, opts ...Option) *CPU {
	c, err := New(l2, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Release hands the cores' L1 tag arrays back to the process-wide free
// list as one job's release, once their runs are done; each core's
// Result stays valid.
func Release(cores ...*CPU) {
	var arrs []*cache.Array
	for _, c := range cores {
		arrs = append(arrs, c.fe.arrays()...)
	}
	cache.ReleaseArrays(arrs...)
}

// begin marks the core's one run as started.
func (c *CPU) begin() {
	if c.ran {
		panic("cpu: the core has already run; build a new one for each run")
	}
	c.ran = true
}

// liveFrontEnd builds the core's L1s, cold.
func (c *CPU) liveFrontEnd() {
	fe, err := newFrontEnd(c.cfg, false)
	if err != nil {
		panic(fmt.Sprintf("cpu: validated config rejected by the L1s: %v", err))
	}
	c.fe = fe
}

// Result summarizes the run so far.
func (c *CPU) Result() Result {
	res := Result{
		Instructions: c.committed,
		Cycles:       c.cycle,
		L1DAccesses:  c.l1dAccesses,
		L1DMisses:    c.l1dMisses,
		L1IAccesses:  c.l1iAccesses,
		L1IMisses:    c.l1iMisses,
		L2Accesses:   c.l2Accesses,
		L1DInvals:    c.l1dInvals,
		L1EnergyNJ:   repeatedSum(c.l1NJ, c.l1dAccesses+c.l1iAccesses),
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	if res.Instructions > 0 {
		res.APKI = float64(res.L2Accesses) * 1000 / float64(res.Instructions)
	}
	return res
}

// InvalidateL1 drops addr's block from the private L1D if resident —
// the coherence-lite shoot-down another core's shared write triggers.
// The stale copy is discarded without writeback (the writer's copy
// supersedes it); the drop is counted in Result.L1DInvals. A core that
// has not started, or replays a Stream, holds no L1D and drops nothing.
//
// Event contract: the CPU itself emits nothing here. Each true return
// makes the caller (cmp.System.shootDown) emit one obs.KindInval
// stamped with the victim core's id and the writing access's DoneAt,
// so shoot-downs trail their access window's outcome in the trace.
//
//nurapid:hotpath
func (c *CPU) InvalidateL1(addr uint64) bool {
	if c.fe.l1d == nil {
		return false
	}
	dropped, _ := c.fe.l1d.Invalidate(addr)
	if dropped {
		c.l1dInvals++
	}
	return dropped
}

// l2BlockBytes is the lower level's block: L1D misses to one such block
// share an MSHR.
const l2BlockBytes = 128

// fill handles an L1D miss to addr (in lower-level block block) made
// at cycle now, after the MSHR pre-check has passed, and returns its
// completion cycle. A miss to a block in the MSHR file merges with its
// fill; any other goes to the lower level. Lookup does not expire a
// finished entry, so a miss to a block whose fill is already past
// "merges" into the dead entry and completes at that old fill time
// (DESIGN §5). Stores retire through the store buffer a cycle later.
//
//nurapid:hotpath
func (c *CPU) fill(now int64, block, addr uint64, write bool) int64 {
	done, ok := c.mshr.Lookup(block)
	if ok {
		c.mshr.Allocate(now, block, done) // merge
	} else {
		done = c.l2Request(now, addr, write) + c.cfg.L1Latency
		if _, ok := c.mshr.Allocate(now, block, done); !ok {
			panic("cpu: MSHR full despite pre-check")
		}
	}
	if write {
		return now + 1
	}
	return done
}

// l2Request issues one access to the organization under test at cycle
// now and returns its completion cycle.
//
//nurapid:hotpath
func (c *CPU) l2Request(now int64, addr uint64, write bool) int64 {
	c.l2Accesses++
	return c.l2.Access(memsys.Req{Now: now, Addr: addr, Write: write}).DoneAt
}

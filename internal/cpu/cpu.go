// Package cpu is a cycle-level simplified out-of-order core in the role
// SimpleScalar played for the paper, with the paper's Table 1 structural
// parameters: 8-wide issue, a 64-entry instruction window (RUU), a
// 32-entry load/store queue, pipelined 3-cycle 64-KB 2-way L1s, 8 MSHRs,
// a hybrid branch predictor folded into the workload's misprediction
// stream, and a 9-cycle redirect penalty.
//
// The model captures the first-order effects the evaluation depends on:
// how much L2 latency the out-of-order window hides, how the MSHRs bound
// memory-level parallelism, and how L2 port occupancy feeds back into
// the pipeline. Instructions dispatch in order into the window, complete
// at computed times, and commit in order.
package cpu

import (
	"fmt"
	"math/bits"

	"nurapid/internal/cache"
	"nurapid/internal/memsys"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
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

type robEntry struct {
	done  int64
	isMem bool
}

// CPU drives a workload through the L1s and the lower-level organization
// under test.
type CPU struct {
	cfg    Config
	l1d    *cache.Cache
	l1i    *cache.Cache
	mshr   *cache.MSHRFile
	l2     memsys.LowerLevel
	l1NJ   float64
	coreID int

	rob        []robEntry
	head, tail int
	used       int
	lsqUsed    int

	cycle      int64
	committed  int64
	stallUntil int64 // no dispatch before this cycle (redirect, MSHR full)
	memIssued  bool  // the single L1D port already used this cycle

	curFetchBlock uint64
	fetchShift    uint // log2(FetchBytes): PC >> fetchShift is the fetch block
	l2Accesses    int64
	l1Energy      float64
	l1dInvals     int64 // coherence-lite shoot-downs absorbed

	// Stepped-run state (Start/Step/Result). pending is held by value so
	// a stalled instruction survives across Step calls without escaping
	// to the heap.
	src        workload.Source
	maxInstr   int64
	pending    workload.Instr
	hasPending bool
	sourceDone bool
	halted     bool
}

// Option configures a CPU at construction (sim.NewRunner style).
type Option func(*CPU)

// WithConfig sets the core's structural parameters (default:
// DefaultConfig).
func WithConfig(cfg Config) Option { return func(c *CPU) { c.cfg = cfg } }

// WithL1EnergyNJ sets the per-access L1 energy (Table 2's 0.57 nJ for 2
// ports; default 0 — timing only).
func WithL1EnergyNJ(nj float64) Option { return func(c *CPU) { c.l1NJ = nj } }

// WithCoreID sets the id stamped on every lower-level request this core
// issues (memsys.Req.Core; default 0). Shared organizations use it for
// per-core attribution.
func WithCoreID(id int) Option { return func(c *CPU) { c.coreID = id } }

// New builds a CPU around the given lower-level cache; options default
// to the paper's Table 1 core with zero L1 energy and core id 0.
func New(l2 memsys.LowerLevel, opts ...Option) (*CPU, error) {
	c := &CPU{cfg: DefaultConfig(), l2: l2}
	for _, o := range opts {
		o(c)
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, err
	}
	l1d, err := cache.NewCache(c.cfg.L1Geometry, cache.LRU, nil)
	if err != nil {
		return nil, err
	}
	l1i, err := cache.NewCache(c.cfg.L1Geometry, cache.LRU, nil)
	if err != nil {
		return nil, err
	}
	c.l1d = l1d
	c.l1i = l1i
	c.mshr = cache.NewMSHRFile(c.cfg.MSHRs)
	c.rob = make([]robEntry, c.cfg.ROB)
	c.curFetchBlock = ^uint64(0)
	c.fetchShift = uint(bits.TrailingZeros(uint(c.cfg.FetchBytes)))
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

// CoreID returns the id stamped on this core's lower-level requests.
func (c *CPU) CoreID() int { return c.coreID }

// Run executes up to maxInstr instructions from src (or until the source
// ends) and returns the run summary. It is Start + Step-to-completion +
// Result, except that after each Step the clock jumps over the cycles in
// which neither commit nor dispatch can change state (skipIdle), so a
// run costs per instruction rather than per simulated cycle. The result
// and the lower-level request stream are identical to a plain Step loop;
// lockstep drivers (internal/cmp) call Start and Step directly.
//
//nurapid:hotpath
func (c *CPU) Run(src workload.Source, maxInstr int64) Result {
	c.Start(src, maxInstr)
	for c.Step() {
		c.skipIdle()
	}
	return c.Result()
}

// skipIdle advances the clock to the next cycle at which a Step can do
// anything but count the cycle: the earlier of the ROB head's completion
// (when the window is non-empty) and the end of the dispatch stall
// (unless dispatch is waiting on a commit). Every Step in between would
// retire nothing, call no Source.Next and no dispatch, and touch no state
// but the clock, so skipping them changes no simulated number. With no
// next event the next Step halts, so the clock is left alone.
//
//nurapid:hotpath
func (c *CPU) skipIdle() {
	if c.committed >= c.maxInstr {
		return // the next Step halts
	}
	next := int64(-1)
	if c.used > 0 {
		next = c.rob[c.head].done
	}
	if !c.dispatchWaitsOnCommit() {
		if s := max(c.cycle, c.stallUntil); next < 0 || s < next {
			next = s
		}
	}
	if next > c.cycle {
		c.cycle = next
	}
}

// dispatchWaitsOnCommit reports whether dispatch cannot make progress
// until an instruction commits: the window is full, the pending
// instruction is a load or store and the LSQ is full, or there is no
// pending instruction and none may be fetched (source exhausted or
// instruction budget reached). A pending instruction always sits in the
// current fetch block (dispatch records a block transition before any
// stall), so its retry re-fetches nothing.
//
//nurapid:hotpath
func (c *CPU) dispatchWaitsOnCommit() bool {
	switch {
	case c.used >= c.cfg.ROB:
		return true
	case c.hasPending:
		k := c.pending.Kind
		return (k == workload.Load || k == workload.Store) && c.lsqUsed >= c.cfg.LSQ
	default:
		return c.sourceDone || c.committed+int64(c.used) >= c.maxInstr
	}
}

// Start arms the core to execute up to maxInstr instructions from src.
// It does not simulate any cycles; drive the core with Step.
//
//nurapid:hotpath
func (c *CPU) Start(src workload.Source, maxInstr int64) {
	c.src = src
	c.maxInstr = maxInstr
	c.hasPending = false
	c.sourceDone = false
	c.halted = false
}

// Step simulates one cycle: commit, then dispatch. It returns false once
// the core is done (instruction budget reached, or the source is
// exhausted and the window has drained); the clock does not advance on
// the final call, so Cycles counts only simulated cycles — a full
// Start/Step loop is cycle-for-cycle identical to the pre-Step Run loop.
// Step always simulates exactly one cycle: lockstep drivers
// (cmp.System.Run) interleave cores one cycle at a time.
//
//nurapid:hotpath
func (c *CPU) Step() bool {
	if c.halted || c.committed >= c.maxInstr {
		c.halted = true
		return false
	}
	c.commitStage()

	// Dispatch stage.
	c.memIssued = false
	dispatched := 0
	for dispatched < c.cfg.Width && c.used < c.cfg.ROB && c.cycle >= c.stallUntil {
		if !c.hasPending {
			if c.sourceDone || c.committed+int64(c.used) >= c.maxInstr {
				break
			}
			in, ok := c.src.Next()
			if !ok {
				c.sourceDone = true
				break
			}
			c.pending = in
			c.hasPending = true
		}
		if !c.dispatch(&c.pending) {
			break // structural stall; retry the same instruction
		}
		c.hasPending = false
		dispatched++
	}

	if c.sourceDone && c.used == 0 && !c.hasPending {
		c.halted = true
		return false
	}
	c.cycle++
	return true
}

// Done reports whether the core has finished its Start-ed run.
func (c *CPU) Done() bool {
	return c.halted || c.committed >= c.maxInstr
}

// Result summarizes the run so far.
func (c *CPU) Result() Result {
	res := Result{
		Instructions: c.committed,
		Cycles:       c.cycle,
		L1DAccesses:  c.l1d.Accesses,
		L1DMisses:    c.l1d.Accesses - c.l1d.Hits,
		L1IAccesses:  c.l1i.Accesses,
		L1IMisses:    c.l1i.Accesses - c.l1i.Hits,
		L2Accesses:   c.l2Accesses,
		L1DInvals:    c.l1dInvals,
		L1EnergyNJ:   c.l1Energy,
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
// supersedes it); the drop is counted in Result.L1DInvals.
//
// Event contract: the CPU itself emits nothing here. Each true return
// makes the caller (cmp.System.shootDown) emit one obs.KindInval
// stamped with the victim core's id and the writing access's DoneAt,
// so shoot-downs trail their access window's outcome in the trace.
//
//nurapid:hotpath
func (c *CPU) InvalidateL1(addr uint64) bool {
	dropped, _ := c.l1d.Invalidate(addr)
	if dropped {
		c.l1dInvals++
	}
	return dropped
}

// commitStage retires up to Width completed instructions in order.
//
//nurapid:hotpath
func (c *CPU) commitStage() {
	for n := 0; n < c.cfg.Width && c.used > 0; n++ {
		e := &c.rob[c.head]
		if e.done > c.cycle {
			return
		}
		if e.isMem {
			c.lsqUsed--
		}
		if c.head++; c.head == c.cfg.ROB {
			c.head = 0
		}
		c.used--
		c.committed++
	}
}

// dispatch tries to enter one instruction into the window; it returns
// false on a structural stall (LSQ or MSHR full, I-fetch miss pending).
//
//nurapid:hotpath
func (c *CPU) dispatch(in *workload.Instr) bool {
	// Instruction fetch: one I-cache access per fetch-block transition.
	fb := in.PC >> c.fetchShift
	if fb != c.curFetchBlock {
		c.curFetchBlock = fb
		c.l1Energy += c.l1NJ
		if out := c.l1i.Access(in.PC, false); !out.Hit {
			done := c.l2Request(in.PC, false)
			c.stallUntil = done // fetch stalls on an I-miss
			return false
		}
	}

	var done int64
	isMem := false
	switch in.Kind {
	case workload.ALU:
		done = c.cycle + 1
	case workload.Branch:
		done = c.cycle + 1
		if in.Mispredicted {
			c.stallUntil = c.cycle + 1 + c.cfg.MispredictPenalty
		}
	case workload.Load, workload.Store:
		if c.lsqUsed >= c.cfg.LSQ {
			return false // wait for commits to drain the LSQ
		}
		if c.memIssued {
			return false // the 1-ported, pipelined L1D takes one access per cycle
		}
		c.memIssued = true
		isMem = true
		write := in.Kind == workload.Store
		block := in.Addr / 128 // lower-level block granularity
		// Structural pre-check before any state changes: a miss that
		// cannot merge needs a free MSHR, or dispatch stalls here and
		// retries the same instruction once one frees.
		if !c.l1d.Contains(in.Addr) {
			if _, merge := c.mshr.Lookup(block); !merge &&
				c.mshr.Outstanding(c.cycle) >= c.cfg.MSHRs {
				c.stallUntil = c.mshr.EarliestDone()
				return false
			}
		}
		c.l1Energy += c.l1NJ
		out := c.l1d.Access(in.Addr, write)
		if out.Evicted && out.Victim.Dirty {
			// L1 writeback into the lower level; does not block.
			c.l2Request(out.Victim.Addr, true)
		}
		switch {
		case out.Hit:
			done = c.cycle + c.cfg.L1Latency
		default:
			if fill, ok := c.mshr.Lookup(block); ok {
				c.mshr.Allocate(c.cycle, block, fill) // merge
				done = fill
			} else {
				fill := c.l2Request(in.Addr, write) + c.cfg.L1Latency
				if _, ok := c.mshr.Allocate(c.cycle, block, fill); !ok {
					panic("cpu: MSHR full despite pre-check")
				}
				done = fill
			}
			if write {
				// Stores retire through the store buffer.
				done = c.cycle + 1
			}
		}
	}

	c.rob[c.tail] = robEntry{done: done, isMem: isMem}
	if c.tail++; c.tail == c.cfg.ROB {
		c.tail = 0
	}
	c.used++
	if isMem {
		c.lsqUsed++
	}
	return true
}

// l2Request issues one access to the organization under test.
//
//nurapid:hotpath
func (c *CPU) l2Request(addr uint64, write bool) int64 {
	c.l2Accesses++
	return c.l2.Access(memsys.Req{Now: c.cycle, Addr: addr, Write: write, Core: c.coreID}).DoneAt
}

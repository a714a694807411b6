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

// op is one instruction as the back end sees it: the workload
// instruction plus, on the recorded front end, its L1 outcome.
type op struct {
	workload.Instr
	flags  byte   // recorded front end: rec* outcome bits
	victim uint64 // recorded front end: the dirty L1D victim, when flags has recVictim
}

// CPU drives a workload through the L1s and the lower-level organization
// under test. The timing back end — window, LSQ, MSHRs, stalls, lower-
// level requests — is one code path; it asks the front end (frontend.go)
// for each instruction's L1 outcomes, live from the L1s (Run, Start) or
// from a recorded Stream (RunStream, StartStream).
type CPU struct {
	cfg  Config
	fe   frontEnd
	mshr *cache.MSHRFile
	l2   memsys.LowerLevel
	l1NJ float64

	rob        []robEntry
	head, tail int
	used       int
	lsqUsed    int

	cycle      int64
	committed  int64
	stallUntil int64 // no dispatch before this cycle (redirect, MSHR full)
	memIssued  bool  // the single L1D port already used this cycle

	l1dAccesses, l1dMisses int64
	l1iAccesses, l1iMisses int64
	l2Accesses             int64
	l1Energy               float64
	l1dInvals              int64 // coherence-lite shoot-downs absorbed

	// Stepped-run state (Start/Step/Result). pending is held by value so
	// a stalled instruction survives across Step calls without escaping
	// to the heap.
	src        workload.Source
	rd         streamReader // the recorded front end; rd.s is nil on the live one
	maxInstr   int64
	pending    op
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

// New builds a CPU around the given lower-level cache; options default
// to the paper's Table 1 core with zero L1 energy. Every lower-level
// request carries core 0; a CMP front end (internal/cmp) restamps it.
func New(l2 memsys.LowerLevel, opts ...Option) (*CPU, error) {
	c := &CPU{cfg: DefaultConfig(), l2: l2}
	for _, o := range opts {
		o(c)
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, err
	}
	c.mshr = cache.NewMSHRFile(c.cfg.MSHRs)
	c.rob = make([]robEntry, c.cfg.ROB)
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

// Run executes up to maxInstr instructions from src (or until the source
// ends) on the live front end and returns the run summary. It is Start +
// Step-to-completion + Result, except that after each Step the clock
// jumps over the cycles in which neither commit nor dispatch can change
// state (skipIdle), so a run costs per instruction rather than per
// simulated cycle. The result and the lower-level request stream are
// identical to a plain Step loop; lockstep drivers (internal/cmp) call
// Start and Step directly.
func (c *CPU) Run(src workload.Source, maxInstr int64) Result {
	c.Start(src, maxInstr)
	return c.run()
}

// RunStream is Run on the recorded front end: it replays s, which must
// have been recorded for this core's L1 geometry and fetch block. The
// result and the lower-level request stream are identical to Run over
// the source and budget s was recorded from.
func (c *CPU) RunStream(s *Stream) Result {
	c.StartStream(s)
	return c.run()
}

// run steps the started core to completion with the idle-cycle
// fast-forward; the one loop behind Run and RunStream.
//
//nurapid:hotpath
func (c *CPU) run() Result {
	for c.Step() {
		c.skipIdle()
	}
	return c.Result()
}

// skipIdle advances the clock to the next cycle at which a Step can do
// anything but count the cycle: the earlier of the ROB head's completion
// (when the window is non-empty) and the end of the dispatch stall
// (unless dispatch is waiting on a commit). Every Step in between would
// retire nothing, fetch nothing and dispatch nothing, and touch no state
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
// instruction budget reached). A pending instruction has always made
// its fetch (dispatch records a block transition before any stall), so
// its retry re-fetches nothing.
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

// Start arms the core to execute up to maxInstr instructions from src on
// the live front end, building its L1s on the first live run (a core
// that only replays streams never holds them). It does not simulate any
// cycles; drive the core with Step.
func (c *CPU) Start(src workload.Source, maxInstr int64) {
	if c.fe.l1d == nil {
		fe, err := newFrontEnd(c.cfg)
		if err != nil {
			panic(fmt.Sprintf("cpu: validated config rejected by the L1s: %v", err))
		}
		c.fe = fe
	}
	c.src = src
	c.rd = streamReader{}
	c.arm(maxInstr)
}

// StartStream arms the core to replay s on the recorded front end: Start
// over the source and budget s was recorded from, minus the L1 work.
func (c *CPU) StartStream(s *Stream) {
	s.checkCore(c.cfg)
	c.src = nil
	c.rd = streamReader{s: s, codes: s.codes, addrs: s.addrs}
	c.arm(s.n)
}

// arm resets the stepped-run state for a run of up to maxInstr
// instructions.
func (c *CPU) arm(maxInstr int64) {
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
			var ok bool
			if c.rd.s != nil {
				ok = c.rd.next(&c.pending)
			} else {
				var in workload.Instr
				in, ok = c.src.Next()
				c.pending = op{Instr: in}
			}
			if !ok {
				c.sourceDone = true
				break
			}
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
// supersedes it); the drop is counted in Result.L1DInvals. Only the live
// front end has an L1D to shoot down; before the first Start it is empty.
//
// Event contract: the CPU itself emits nothing here. Each true return
// makes the caller (cmp.System.shootDown) emit one obs.KindInval
// stamped with the victim core's id and the writing access's DoneAt,
// so shoot-downs trail their access window's outcome in the trace.
//
//nurapid:hotpath
func (c *CPU) InvalidateL1(addr uint64) bool {
	if c.rd.s != nil {
		panic("cpu: InvalidateL1 on a core replaying a recorded stream")
	}
	if c.fe.l1d == nil {
		return false
	}
	dropped, _ := c.fe.l1d.Invalidate(addr)
	if dropped {
		c.l1dInvals++
	}
	return dropped
}

// commitStage retires up to Width completed instructions in order.
//
//nurapid:hotpath
func (c *CPU) commitStage() {
	head, used, lsqUsed, n := c.head, c.used, c.lsqUsed, 0
	for ; n < c.cfg.Width && used > 0; n++ {
		e := &c.rob[head]
		if e.done > c.cycle {
			break
		}
		if e.isMem {
			lsqUsed--
		}
		if head++; head == c.cfg.ROB {
			head = 0
		}
		used--
	}
	c.head, c.used, c.lsqUsed = head, used, lsqUsed
	c.committed += int64(n)
}

// dispatch tries to enter one instruction into the window; it returns
// false on a structural stall (LSQ or MSHR full, I-fetch miss pending).
//
//nurapid:hotpath
func (c *CPU) dispatch(in *op) bool {
	// Instruction fetch: one I-cache access per fetch-block transition.
	// The recorded front end clears its transition bit, so a retry
	// after an I-miss (in the same block) makes no second access.
	var access, miss bool
	if c.rd.s != nil {
		access, miss = in.flags&recFetch != 0, in.flags&recIMiss != 0
		in.flags &^= recFetch
	} else {
		access, miss = c.fe.fetch(in.PC)
	}
	if access {
		c.l1iAccesses++
		c.l1Energy += c.l1NJ
		if miss {
			c.l1iMisses++
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
		// Ask the front end whether the L1D access will miss: the
		// recorded one knows; the live one looks the tags up once and
		// keeps the probe for the access below.
		var probe cache.Probe
		var miss bool
		if c.rd.s != nil {
			miss = in.flags&recDHit == 0
		} else {
			probe = c.fe.l1d.Probe(in.Addr)
			miss = !probe.Hit
		}
		// Structural pre-check before any state changes: a miss that
		// cannot merge needs a free MSHR, or dispatch stalls here and
		// retries the same instruction once one frees.
		if miss {
			if _, merge := c.mshr.Lookup(block); !merge &&
				c.mshr.Outstanding(c.cycle) >= c.cfg.MSHRs {
				c.stallUntil = c.mshr.EarliestDone()
				return false
			}
		}
		// Make the access: the outcome is the hit or miss above plus
		// the dirty block it evicted, if any.
		c.l1dAccesses++
		c.l1Energy += c.l1NJ
		var victim uint64
		var dirty bool
		if c.rd.s != nil {
			victim, dirty = in.victim, in.flags&recVictim != 0
		} else {
			out := c.fe.l1d.AccessProbed(probe, in.Addr, write)
			victim, dirty = out.Victim.Addr, out.Evicted && out.Victim.Dirty
		}
		if dirty {
			// L1 writeback into the lower level; does not block.
			c.l2Request(victim, true)
		}
		switch {
		case !miss:
			done = c.cycle + c.cfg.L1Latency
		default:
			c.l1dMisses++
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
	return c.l2.Access(memsys.Req{Now: c.cycle, Addr: addr, Write: write}).DoneAt
}

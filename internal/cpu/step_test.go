package cpu

import "nurapid/internal/workload"

// The cycle-stepped reference core: the engine the per-instruction one
// (backend.go, lockstep.go) is held to. It simulates one cycle per Step
// on the live L1s: commit, then dispatch, with an explicit window, LSQ
// and stall state. Every lower-level request it makes goes through the
// core's own fill and l2Request, at the cycle of the Step that makes it.

// robEntry is one window entry: its completion cycle and whether it
// holds an LSQ entry.
type robEntry struct {
	done  int64
	isMem bool
}

// stepCore is a CPU run by the cycle-stepped reference: the window, LSQ,
// stalls and stepped-run state beside the core's L1s, MSHR file and run
// summary. pending holds an instruction that stalled, so it is retried
// on the next Step.
type stepCore struct {
	*CPU
	rob        []robEntry
	head, tail int
	used       int
	lsqUsed    int
	stallUntil int64 // no dispatch before this cycle (redirect, MSHR full)
	memIssued  bool  // the single L1D port already used this cycle
	src        workload.Source
	maxInstr   int64
	pending    workload.Instr
	hasPending bool
	sourceDone bool
	halted     bool
}

// Start arms the core to execute up to maxInstr instructions from src on
// the live L1s, one cycle per Step. It does not simulate any cycles.
func (c *CPU) Start(src workload.Source, maxInstr int64) *stepCore {
	c.begin()
	c.liveFrontEnd()
	return &stepCore{CPU: c, rob: make([]robEntry, c.cfg.ROB), src: src, maxInstr: maxInstr}
}

// Step simulates one cycle: commit, then dispatch. It returns false once
// the core is done (instruction budget reached, or the source is
// exhausted and the window has drained); the clock does not advance on
// the final call, so Cycles counts only simulated cycles. Step always
// simulates exactly one cycle: stepLockstep interleaves cores one cycle
// at a time.
func (c *stepCore) Step() bool {
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
			c.pending, c.hasPending = in, true
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

// commitStage retires up to Width completed instructions in order.
func (c *stepCore) commitStage() {
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
func (c *stepCore) dispatch(in *workload.Instr) bool {
	// Instruction fetch: one I-cache access per fetch-block transition,
	// so a retry after an I-miss (in the same block) makes no second
	// access.
	if access, miss := c.fe.fetch(in.PC); access {
		c.l1iAccesses++
		if miss {
			c.l1iMisses++
			c.stallUntil = c.l2Request(c.cycle, in.PC, false) // fetch stalls on an I-miss
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
		block := in.Addr / l2BlockBytes
		// Look the tags up once: the miss decides the MSHR pre-check,
		// and the probe serves the access below.
		probe := c.fe.l1d.Probe(in.Addr)
		// Structural pre-check before any state changes: a miss that
		// cannot merge needs a free MSHR, or dispatch stalls here and
		// retries the same instruction once one frees.
		if !probe.Hit {
			if _, merge := c.mshr.Lookup(block); !merge &&
				c.mshr.Outstanding(c.cycle) >= c.cfg.MSHRs {
				c.stallUntil = c.mshr.EarliestDone()
				return false
			}
		}
		c.l1dAccesses++
		out := c.fe.l1d.AccessProbed(probe, in.Addr, write)
		if out.Evicted && out.Victim.Dirty {
			// L1 writeback into the lower level; does not block.
			c.l2Request(c.cycle, out.Victim.Addr, true)
		}
		if probe.Hit {
			done = c.cycle + c.cfg.L1Latency
		} else {
			c.l1dMisses++
			done = c.fill(c.cycle, block, in.Addr, write)
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

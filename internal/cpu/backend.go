package cpu

import (
	"math"

	"nurapid/internal/workload"
)

// The per-instruction timing engine behind Run, RunStream and Lockstep.
//
// The core dispatches and commits in order, and every instruction's
// completion time is known when it dispatches, so a core that steps one
// cycle at a time (commit, then dispatch; the tests keep one as the
// reference, Step) can be reproduced one instruction at a time, exactly.
// With W = Width, D_j and C_j the dispatch and commit cycles of
// instruction j, and M_k the commit cycle of the k-th load or store:
//
//	A_i = max(D_{i-1}, D_{i-W}+1, C_{i-ROB}, redirect)
//
// is the cycle in which Step first tries to dispatch instruction i: its
// predecessor has dispatched, the cycle's W dispatch slots are not all
// taken, the window has a free entry (commit precedes dispatch within a
// cycle), and a mispredicted predecessor's redirect, D+1+penalty, has
// passed. An I-miss sends its request at A_i and the instruction
// retries at max(A_i+1, fill). A load or store then waits for an LSQ
// entry (M_{k-LSQ}) and for the one-ported L1D (the cycle after the
// previous load or store dispatched); a miss that cannot merge into a
// full MSHR file waits for the earliest fill, where its retry always
// succeeds. That cycle is D_i; the L1D access, its dirty writeback and
// its miss reach the lower level at D_i, in that order. Then
//
//	C_i = max(done_i, D_i+1, C_{i-1}, C_{i-W}+1)
//
// (complete, dispatched in an earlier cycle, in order, W commits a
// cycle). Every lower-level request keeps the stepped core's cycle and
// order, so the organization under test sees the identical request
// stream.
//
// A stepped core halts in the cycle after the budget's last commit, so
// a run that reaches its budget takes C_last+1 cycles. A source that
// runs dry halts the core in the first cycle that has both tried to
// fetch past the end and an empty window: max(C_last, A of a phantom
// next instruction).
//
// Two rings keep the recent cycles: each instruction's dispatch and
// commit cycle, and each load or store's commit cycle. ALU ops, branches
// and L1D hits — the common stream codes — are timed without a branch on
// their kind, from a per-code table; L1D misses and escaped codes take
// the general path, which makes the same MSHR calls at the same cycles
// as the stepped core's dispatch.

// runChunk is the number of instructions Run records from its source,
// and then times, at a time.
const runChunk = 4096

// timing is the engine's state between two instructions (beside the
// rings and CPU.timed). It has at most four fields, so the compiler can
// keep it in registers, and the general path takes it and returns it by
// value.
type timing struct {
	next    int64 // earliest first attempt of the next instruction: D_{i-1}, or the redirect after a mispredict
	last    int64 // C_{i-1}
	memNext int64 // earliest L1D access of the next load or store
	k       int   // loads and stores timed so far
}

// codeTiming times one stream code on the common path.
type codeTiming struct {
	lat      int64 // completion after dispatch: 1, or L1Latency for an L1D hit; 0 for the general path's codes (L1D misses, escapes)
	redirect int64 // added to D for the next instruction's attempt: 1+MispredictPenalty after a mispredicted branch
	memMask  int64 // all ones for a load or store, else zero
}

// maxEntries caps Width, ROB and LSQ (Config.Validate). The rings are
// twice as deep, a power-of-two constant, so a ring index is a constant
// mask that needs no bounds check, and the load/store ring's next slot
// is never one still to be read (the common path writes it for every
// instruction, and only a load or store advances past it).
const (
	maxEntries = 128
	ringSize   = 2 * maxEntries
	ringMask   = ringSize - 1
)

// slot is one instruction's dispatch and commit cycle.
type slot struct{ dispatch, commit int64 }

// initEngine fills the code table for c.cfg and starts the rings.
func (c *CPU) initEngine() {
	for j := range c.ring {
		c.ring[j].dispatch = -1 // no earlier dispatch takes a slot of cycle 0
	}
	for code, f := range codeFlags {
		e := &c.codeTab[code]
		k := workload.Kind(f & recKind)
		mem := k == workload.Load || k == workload.Store
		if code == codeEscape || mem && f&recDHit == 0 {
			continue
		}
		e.lat = 1
		if mem {
			e.lat, e.memMask = c.cfg.L1Latency, -1
		}
		if k == workload.Branch && f&recMispredict != 0 {
			e.redirect = 1 + c.cfg.MispredictPenalty
		}
	}
}

// Run executes up to maxInstr instructions from src (or until the source
// ends) and returns the run summary. It records the source runChunk
// instructions at a time through the core's own L1s, then times each
// chunk: on one core the L1 outcomes depend only on program order, so
// the result and the lower-level request stream are those of a
// cycle-stepped core over the same source and budget.
func (c *CPU) Run(src workload.Source, maxInstr int64) Result {
	c.begin()
	c.liveFrontEnd()
	s := &c.chunk
	s.codes, s.addrs = make([]byte, 0, runChunk/2), make([]uint32, 0, runChunk)
	for left := max(maxInstr, 0); ; {
		s.reset(min(left, runChunk))
		s.record(&c.fe, src)
		c.replay(s)
		left -= int64(s.count)
		if int64(s.count) < s.n || left == 0 {
			return c.finish(left == 0)
		}
	}
}

// RunStream is Run on a recorded front end: it times s, which must have
// been recorded by Record (not RecordFront) for this core's L1 geometry
// and fetch block. The result and the lower-level request stream are
// those of Run over the source and budget s was recorded from.
func (c *CPU) RunStream(s *Stream) Result {
	if s.front {
		panic("cpu: RunStream on a front; Lockstep times fronts")
	}
	s.checkCore(c.cfg)
	c.begin()
	c.replay(s)
	return c.finish(int64(s.count) == s.n)
}

// finish applies the halting rule, the budget's or the dry source's,
// and summarizes the run.
//
//nurapid:coldpath
func (c *CPU) finish(budgetReached bool) Result {
	t := c.tm
	c.committed = int64(c.timed)
	switch {
	case !budgetReached:
		c.cycle = max(t.last, c.attempt(t, c.timed))
	case c.timed > 0:
		c.cycle = t.last + 1
	}
	return c.Result()
}

// attempt is A_i, for instruction i.
//
//nurapid:hotpath
func (c *CPU) attempt(t timing, i int) int64 {
	return max(t.next, c.ring[(i-c.cfg.Width)&ringMask].dispatch+1, c.ring[(i-c.cfg.ROB)&ringMask].commit)
}

// replay times every instruction of s, continuing from the engine's
// state.
//
//nurapid:hotpath
func (c *CPU) replay(s *Stream) {
	t := c.tm
	var cur cursor
	for j := 0; j < s.count; {
		if t, j = c.common(t, j, s); j < s.count {
			t = c.general(t, c.timed+j, s, &cur, s.codes[j>>1]>>(j&1<<2)&0x0f)
			j++
		}
	}
	c.tm, c.timed = t, c.timed+s.count
	c.l1iAccesses += s.fetches
	c.l1iMisses += s.iMisses
	c.l1dAccesses += s.dAccesses
	c.l1dMisses += s.dMisses
}

// common times s's instructions from the j-th up to the first that needs
// the general path, or the end of s, and returns the state after them
// and that instruction's index. It makes no calls and reads every other
// operand from c and s where it uses it, so the loop-carried state stays
// in registers; and each max takes the loop-carried value last, so an
// instruction adds only a few cycles to the dependency chain.
//
//nurapid:hotpath
func (c *CPU) common(t timing, j int, s *Stream) (timing, int) {
	next, last, memNext, k := t.next, t.last, t.memNext, t.k
	for ; j < s.count; j++ {
		e := &c.codeTab[s.codes[j>>1]>>(j&1<<2)&0x0f]
		if e.lat == 0 {
			break // the general path's
		}
		i := c.timed + j
		w := &c.ring[(i-c.cfg.Width)&ringMask]
		ready := max(w.dispatch+1, c.ring[(i-c.cfg.ROB)&ringMask].commit, c.memCommits[(k-c.cfg.LSQ)&ringMask]&e.memMask)
		d := max(max(ready, memNext&e.memMask), next)
		cc := max(max(d+e.lat, w.commit+1), last)
		c.ring[i&ringMask] = slot{d, cc}
		// Only a load or store advances k, so another instruction's
		// write lands in the slot the next load or store overwrites.
		c.memCommits[k&ringMask] = cc
		memNext = max(memNext, (d+1)&e.memMask) // a load or store's d is at least memNext
		k -= int(e.memMask)
		next, last = d+e.redirect, cc
	}
	return timing{next, last, memNext, k}, j
}

// general times instruction i, whose code is an L1D miss or an escape,
// decoding its flag byte and addresses from s at cur: the same
// recurrence as common's, plus the lower-level requests and the MSHR
// calls the stepped core's dispatch makes, at the same cycles.
//
//nurapid:hotpath
func (c *CPU) general(t timing, i int, s *Stream, cur *cursor, code byte) timing {
	f := codeFlags[code]
	if code == codeEscape {
		f = s.rare[cur.rare]
		cur.rare++
	}
	kind := workload.Kind(f & recKind)
	mem := kind == workload.Load || kind == workload.Store
	a := c.attempt(t, i)
	if f&recIMiss != 0 {
		a = max(a+1, c.l2Request(a, cur.addr(s), false))
	}
	d, done, next := a, a+1, a
	switch {
	case kind == workload.Branch && f&recMispredict != 0:
		next = d + 1 + c.cfg.MispredictPenalty
	case mem:
		d = max(a, c.memCommits[(t.k-c.cfg.LSQ)&ringMask], t.memNext)
		var addr uint64
		hit := f&recDHit != 0
		if !hit {
			addr = cur.addr(s)
			// On one core nothing touches the L1D while the miss waits:
			// its retry at the earliest fill passes and changes nothing.
			d = c.mshrReady(d, addr/l2BlockBytes)
		}
		next = d
		if f&recVictim != 0 {
			c.l2Request(d, cur.addr(s), true)
		}
		if hit {
			done = d + c.cfg.L1Latency
		} else {
			done = c.fill(d, addr/l2BlockBytes, addr, kind == workload.Store)
		}
		t.memNext = d + 1
	}
	return c.retire(t, i, d, done, next, mem)
}

// mshrReady is the cycle at which an L1D miss to block that reaches the
// MSHR pre-check at d can take its MSHR: d, or the earliest fill when
// the miss cannot merge and the file is full.
//
//nurapid:hotpath
func (c *CPU) mshrReady(d int64, block uint64) int64 {
	if _, merge := c.mshr.Lookup(block); !merge && c.mshr.Outstanding(d) >= c.cfg.MSHRs {
		return c.mshr.EarliestDone()
	}
	return d
}

// retire records instruction i, dispatched at d and complete at done,
// with next the earliest attempt of the instruction after it, and
// returns the state after it.
//
//nurapid:hotpath
func (c *CPU) retire(t timing, i int, d, done, next int64, mem bool) timing {
	cc := max(done, d+1, t.last, c.ring[(i-c.cfg.Width)&ringMask].commit+1)
	c.ring[i&ringMask] = slot{d, cc}
	if mem {
		c.memCommits[t.k&ringMask] = cc
		t.k++
	}
	t.next, t.last = next, cc
	return t
}

// cursor is the general path's position in a Stream's side lists.
type cursor struct{ rare, addrs, wide int }

// addr reads the next address.
//
//nurapid:hotpath
func (r *cursor) addr(s *Stream) uint64 {
	a := s.addrs[r.addrs]
	r.addrs++
	if a != wideAddr {
		return uint64(a) + s.base
	}
	w := s.wide[r.wide]
	r.wide++
	return w
}

// repeatedSum returns what adding x to zero n times, rounding after each
// addition, yields: the L1 energy of n accesses at x nJ each, as the
// per-access sum would accumulate it. Within one binade of the sum the
// rounding unit u is fixed, and once an addition has landed on the
// grid of the binade the increment round(x/u)·u repeats (a tie rounds
// to even, and from an even multiple of u the tie resolves the same way
// every time). So after two additions inside one binade that agree,
// the rest of the binade is one multiplication; a sum of n terms takes
// a few additions per binade crossed.
func repeatedSum(x float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	if x < 0 {
		return -repeatedSum(-x, n)
	}
	if !(x > 0) || math.IsInf(x, 1) {
		return 0 + x // zero, NaN or +Inf: every later addition keeps it
	}
	s := 0.0
	for n > 0 {
		prev := s
		s += x
		n--
		d := s - prev // exact: prev <= s <= 2·prev once prev >= x
		if n == 0 || prev == 0 || s+x-s != d {
			continue
		}
		if d == 0 {
			return s // x rounds away; it always will
		}
		ue := ulpExp(s)
		if ulpExp(prev) != ue {
			continue
		}
		// In units of 2^ue, the binade is [2^52, 2^53) (the subnormals and
		// the first normal binade share one unit). Jump every step whose
		// sum stays two units below its top, where the rounding unit
		// cannot change.
		S, D := int64(math.Ldexp(s, -ue)), int64(math.Ldexp(d, -ue))
		m := min((1<<53-2-S)/D, n)
		if m > 0 {
			s = math.Ldexp(float64(S+m*D), ue)
			n -= m
		}
	}
	return s
}

// ulpExp is the exponent of s's rounding unit, for finite s > 0.
func ulpExp(s float64) int {
	_, e := math.Frexp(s) // s = f·2^e, f in [0.5, 1)
	return max(e-53, -1074)
}

package cpu

import (
	"math"
	"math/bits"

	"nurapid/internal/workload"
)

// The lockstep driver: several cores over one shared lower level, each
// timed by the per-instruction recurrence (backend.go) on its live L1s.
//
// A write that reaches the shared level shoots its block down from the
// other cores' L1Ds (InvalidateL1, called by the lower level the writer
// was built on), so a core's L1D outcomes depend on the other cores and
// cannot be recorded ahead. Instead each core is timed eagerly up to its
// next event, the next thing it does that another core can see or
// change: an I-miss request at A_i, or a load or store's L1D probe and
// access at D_i, with its dirty writeback and its fill (a miss that
// finds the MSHR file full and cannot merge probes and accesses again
// at the earliest fill). Lockstep runs the waiting events in ascending
// (cycle, rank) order, where core i's rank in cycle t is (i-t) mod n:
// the order of a loop that steps every core one cycle at a time,
// starting cycle t at core t mod n. One core's events within a cycle
// run in program order, and a waiting core's L1D is read only when its
// event runs, since another core's write may shoot a line down first.

// What a lane waits for, and the at of a lane whose core is done.
const (
	waitNext  = iota // its next instruction: up to its next event it touches only its own state, so its step may run at any point
	waitIMiss        // its I-miss request, at lane.at
	waitL1D          // its L1D probe and access, at lane.at

	laneDone = math.MaxInt64 // later than any event
)

// lane is one core's place in a lockstep run: the instruction being
// timed and the event the core waits for.
type lane struct {
	c      *CPU
	src    workload.Source
	budget int64
	in     workload.Instr
	at     int64
	wait   int
}

// Lockstep runs each core on its source, up to maxInstr instructions
// each (or until the source ends), with the cores' shared-level
// requests and shoot-downs in the order set out above; each core's
// Result then holds its run. The cores must be new, each built on its
// own view of the shared level.
func Lockstep(cores []*CPU, srcs []workload.Source, maxInstr int64) {
	lanes := make([]lane, len(cores))
	for i, c := range cores {
		c.begin()
		c.liveFrontEnd()
		lanes[i] = lane{c: c, src: srcs[i], budget: max(maxInstr, 0)}
	}
	m := newCycleMod(len(lanes))
	for {
		// The next event: of the lanes waiting at the earliest cycle t,
		// the one of least rank, which is the first from core t mod n on.
		t := int64(laneDone)
		for i := range lanes {
			t = min(t, lanes[i].at)
		}
		if t == laneDone {
			return
		}
		i := m.of(t)
		for lanes[i].at != t {
			if i++; i == len(lanes) {
				i = 0
			}
		}
		lanes[i].step()
	}
}

// cycleMod keeps t mod n for an event cycle t that never decreases: it
// moves the last t mod n on by the distance to the new t, reduced mod n
// by multiplication (Lemire's fastmod) rather than a division.
type cycleMod struct {
	n     uint64
	recip uint64 // ^uint64(0)/n + 1: d mod n for any d < 2^32 is the high word of (recip*d)*n
	wrap  uint64 // 2^32 mod n, to fold a distance of 2^32 or more below 2^32
	t     int64  // the last cycle
	mod   int    // t mod n
}

func newCycleMod(n int) cycleMod {
	return cycleMod{n: uint64(n), recip: ^uint64(0)/uint64(n) + 1, wrap: (1 << 32) % uint64(n)}
}

// of returns t mod n, for t at or after the last cycle given.
//
//nurapid:hotpath
func (m *cycleMod) of(t int64) int {
	d := uint64(t - m.t)
	for d>>32 != 0 {
		d = (d>>32)*m.wrap + d&(1<<32-1)
	}
	r, _ := bits.Mul64(m.recip*d, m.n)
	mod := m.mod + int(r)
	if mod >= int(m.n) {
		mod -= int(m.n)
	}
	m.t, m.mod = t, mod
	return mod
}

// step runs the event the lane waits for, then times the core's
// instructions up to its next event, which it leaves waiting, or to the
// end of its run.
//
//nurapid:hotpath
func (l *lane) step() {
	c := l.c
	switch l.wait {
	case waitIMiss:
		l.at = max(l.at+1, c.l2Request(l.at, l.in.PC, false))
		if l.schedule() {
			return
		}
	case waitL1D:
		if !l.accessL1D() {
			return
		}
	}
	for {
		ok := int64(c.timed) < l.budget
		if ok {
			l.in, ok = l.src.Next()
		}
		if !ok {
			l.at = laneDone
			c.finish(int64(c.timed) == l.budget)
			return
		}
		l.at = c.attempt(c.tm, c.timed)
		if access, miss := c.fe.fetch(l.in.PC); access {
			c.l1iAccesses++
			if miss {
				c.l1iMisses++
				l.wait = waitIMiss
				return
			}
		}
		if l.schedule() {
			return
		}
	}
}

// schedule times the lane's ALU op or branch, dispatched at l.at, or
// leaves its load or store waiting for its L1D event: the first cycle
// from l.at with an LSQ entry free and the L1D port unused. It reports
// whether the lane waits.
//
//nurapid:hotpath
func (l *lane) schedule() bool {
	c, in := l.c, &l.in
	if in.Kind == workload.Load || in.Kind == workload.Store {
		l.at = max(l.at, c.memCommits[(c.tm.k-c.cfg.LSQ)&ringMask], c.tm.memNext)
		l.wait = waitL1D
		return true
	}
	next := l.at
	if in.Kind == workload.Branch && in.Mispredicted {
		next += 1 + c.cfg.MispredictPenalty
	}
	c.tm = c.retire(c.tm, c.timed, l.at, l.at+1, next, false)
	c.timed++
	return false
}

// accessL1D runs the L1D event of the lane's load or store at l.at and
// times it. A miss that cannot merge into a full MSHR file instead moves
// the event to the earliest fill and reports false.
//
//nurapid:hotpath
func (l *lane) accessL1D() bool {
	c, d := l.c, l.at
	addr, write := l.in.Addr, l.in.Kind == workload.Store
	block := addr / l2BlockBytes
	probe := c.fe.l1d.Probe(addr)
	if !probe.Hit {
		if e := c.mshrReady(d, block); e != d {
			l.at = e
			return false
		}
	}
	c.l1dAccesses++
	out := c.fe.l1d.AccessProbed(probe, addr, write)
	if out.Evicted && out.Victim.Dirty {
		c.l2Request(d, out.Victim.Addr, true)
	}
	done := d + c.cfg.L1Latency
	if !probe.Hit {
		c.l1dMisses++
		done = c.fill(d, block, addr, write)
	}
	c.tm.memNext = d + 1
	c.tm = c.retire(c.tm, c.timed, d, done, d, true)
	c.timed++
	return true
}

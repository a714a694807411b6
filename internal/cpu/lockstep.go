package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"nurapid/internal/cache"
	"nurapid/internal/workload"
)

// The lockstep driver: several cores over one shared lower level, each
// timed by the per-instruction recurrence (backend.go) from a recorded
// front (Stream.RecordFront) on its live L1D.
//
// A write that reaches the shared level shoots its block down from the
// other cores' L1Ds (InvalidateL1, called by the lower level the writer
// was built on), so a core's L1D outcomes depend on the other cores and
// cannot be recorded ahead; its fetches touch its own L1I alone, so the
// front carries them resolved. Each core is timed eagerly up to its
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

// lane is one core's place in a lockstep run: its front and cursor, the
// instruction being timed and the event the core waits for.
type lane struct {
	c        *CPU
	s        *Stream
	cur      cursor
	f        byte   // the flag byte of the instruction being timed
	pc, addr uint64 // its PC, if it takes an I-miss, and its load or store address
	at       int64
	wait     int
}

// Lockstep times each core on its front (RecordFront, for the cores' L1s
// and fetch block): one front that every core runs, or one per core.
// The cores' shared-level requests and shoot-downs come in the order
// set out above, and each core's Result then holds its run. The cores
// must be new, each built on its own view of the shared level.
func Lockstep(cores []*CPU, fronts []*Stream) {
	if len(fronts) != 1 && len(fronts) != len(cores) {
		panic(fmt.Sprintf("cpu: %d fronts for %d cores; want one, or one per core", len(fronts), len(cores)))
	}
	lanes := make([]lane, len(cores))
	for i, c := range cores {
		s := fronts[0]
		if len(fronts) > 1 {
			s = fronts[i]
		}
		if !s.front {
			panic("cpu: Lockstep on a full stream; it times fronts (RecordFront)")
		}
		s.checkCore(c.cfg)
		c.begin()
		c.fe.l1d = cache.MustNewCache(c.cfg.L1Geometry)
		lanes[i] = lane{c: c, s: s}
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
// end of its front.
//
//nurapid:hotpath
func (l *lane) step() {
	c := l.c
	switch l.wait {
	case waitIMiss:
		l.at = max(l.at+1, c.l2Request(l.at, l.pc, false))
		if l.schedule() {
			return
		}
	case waitL1D:
		if !l.accessL1D() {
			return
		}
	}
	for c.timed < l.s.count {
		l.decode(c.timed)
		l.at = c.attempt(c.tm, c.timed)
		if l.f&recIMiss != 0 {
			l.wait = waitIMiss
			return
		}
		if l.schedule() {
			return
		}
	}
	l.at = laneDone
	c.l1iAccesses, c.l1iMisses = l.s.fetches, l.s.iMisses
	c.finish(int64(l.s.count) == l.s.n)
}

// decode reads the flag byte and addresses of the front's j-th
// instruction through the lane's cursor.
//
//nurapid:hotpath
func (l *lane) decode(j int) {
	s := l.s
	code := s.codes[j>>1] >> (j & 1 << 2) & 0x0f
	f := codeFlags[code]
	if code == codeEscape {
		f = s.rare[l.cur.rare]
		l.cur.rare++
	}
	if f&recIMiss != 0 {
		l.pc = l.cur.addr(s)
	}
	if k := workload.Kind(f & recKind); k == workload.Load || k == workload.Store {
		l.addr = l.cur.addr(s)
	}
	l.f = f
}

// schedule times the lane's ALU op or branch, dispatched at l.at, or
// leaves its load or store waiting for its L1D event: the first cycle
// from l.at with an LSQ entry free and the L1D port unused. It reports
// whether the lane waits.
//
//nurapid:hotpath
func (l *lane) schedule() bool {
	c, kind := l.c, workload.Kind(l.f&recKind)
	if kind == workload.Load || kind == workload.Store {
		l.at = max(l.at, c.memCommits[(c.tm.k-c.cfg.LSQ)&ringMask], c.tm.memNext)
		l.wait = waitL1D
		return true
	}
	next := l.at
	if kind == workload.Branch && l.f&recMispredict != 0 {
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
	addr, write := l.addr, workload.Kind(l.f&recKind) == workload.Store
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

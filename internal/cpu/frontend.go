package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"nurapid/internal/cache"
	"nurapid/internal/workload"
)

// The front end is the core's instruction source, L1I, L1D and current
// fetch block; the back end (backend.go) is the window, LSQ, MSHR
// file, stalls and lower-level requests. In a single-core run the front
// end's outcomes depend only on the instruction stream: dispatch
// accesses the L1I once per fetch-block transition and the L1D once per
// load or store, both in program order, and nothing but those accesses
// touches the L1s. So the L1 hit, miss and victim sequence of (source, n)
// is the same against every lower level: a Stream records it once for
// any number of timing runs (RunStream), and Run records its source
// into one, chunk by chunk, as it goes. In a multi-core run a coherence
// shoot-down mutates a core's L1D between its events, so its L1D
// outcomes depend on the other cores' timing, but its L1I is touched by
// its own fetches alone: Lockstep times a front, a Stream whose loads
// and stores are left to the live L1D.

// frontEnd is the live front end's state: the L1 pair and the current
// fetch block. A Stream's recording uses it, without the L1D for a
// front; a Lockstep core keeps only the L1D.
type frontEnd struct {
	l1d, l1i      *cache.Cache
	curFetchBlock uint64
	fetchShift    uint // log2(FetchBytes): PC >> fetchShift is the fetch block
}

// newFrontEnd builds cold L1s for a validated cfg: the L1I, and the L1D
// unless front.
func newFrontEnd(cfg Config, front bool) (frontEnd, error) {
	fe := frontEnd{curFetchBlock: ^uint64(0), fetchShift: uint(bits.TrailingZeros(uint(cfg.FetchBytes)))}
	var err error
	if fe.l1i, err = cache.NewCache(cfg.L1Geometry); err != nil || front {
		return fe, err
	}
	fe.l1d, err = cache.NewCache(cfg.L1Geometry)
	return fe, err
}

// arrays returns the tag arrays of the L1s the front end has.
func (f *frontEnd) arrays() []*cache.Array {
	var arrs []*cache.Array
	for _, c := range []*cache.Cache{f.l1i, f.l1d} {
		if c != nil {
			arrs = append(arrs, c.Array())
		}
	}
	return arrs
}

// fetch is the instruction fetch of pc: when pc starts a new fetch block
// it accesses the L1I once and reports whether that access missed. It
// is small enough to inline, so the common case (same block) costs no
// call.
//
//nurapid:hotpath
func (f *frontEnd) fetch(pc uint64) (access, miss bool) {
	if pc>>f.fetchShift == f.curFetchBlock {
		return false, false
	}
	return true, f.enterBlock(pc)
}

// enterBlock makes pc's block current and accesses the L1I for it,
// reporting a miss. It stays out of line so that fetch inlines.
//
//nurapid:hotpath
//go:noinline
func (f *frontEnd) enterBlock(pc uint64) bool {
	f.curFetchBlock = pc >> f.fetchShift
	return !f.l1i.Access(pc, false).Hit
}

// Flag bits of one recorded instruction.
const (
	recKind       = 0x03 // workload.Kind (ALU, Load, Store, Branch)
	recMispredict = 1 << 2
	recFetch      = 1 << 3 // a fetch-block transition: one L1I access
	recIMiss      = 1 << 4 // ... that missed; the PC follows in addrs
	recDHit       = 1 << 5 // load/store hit the L1D; clear: its Addr follows in addrs
	recVictim     = 1 << 6 // the L1D access evicted a dirty block; its address follows
)

// A Stream stores each instruction's flag byte as a 4-bit code, two to a
// byte. The fourteen common flag bytes — every kind, misprediction,
// fetch transition and L1D hit or miss — have a code of their own; an
// instruction with an I-miss or a dirty victim, or any other flag byte,
// takes codeEscape and its flag byte goes to rare. An address is stored
// as its 32-bit distance above the stream's base where that fits; any
// other is stored as wideAddr, its value in wide.
const (
	codeEscape = 15
	wideAddr   = math.MaxUint32
)

// codeFlags maps a code to its flag byte; flagCode inverts it, indexed
// by flagIndex.
var codeFlags, flagCode = func() (codes [16]byte, index [32]byte) {
	for i := range index {
		index[i] = codeEscape
	}
	n := byte(0)
	add := func(f byte) {
		codes[n], index[flagIndex(f)] = f, n
		n++
	}
	for _, fetch := range []byte{0, recFetch} {
		add(byte(workload.ALU) | fetch)
		add(byte(workload.Branch) | fetch)
		add(byte(workload.Branch) | recMispredict | fetch)
		for _, hit := range []byte{0, recDHit} {
			add(byte(workload.Load) | hit | fetch)
			add(byte(workload.Store) | hit | fetch)
		}
	}
	return codes, index
}()

// flagIndex packs the flag bits a code can carry into 5 bits.
func flagIndex(f byte) byte { return f&0x0f | f>>1&0x10 }

// Stream is one recorded front end: the L1 outcomes of the first n
// instructions of a source, as a core built with a given Config sees
// them. Each instruction is a flag byte (kind, misprediction,
// fetch-block transition, I-miss, L1D hit, dirty victim), stored as a
// 4-bit code; an address is kept only where the back end needs one:
// the PC of an I-miss, the address of an L1D miss, and the block
// address of a dirty L1D victim, in that order. At about half a byte
// per instruction plus four bytes per L1 miss, a stream costs a few
// hundred KB per 400 k instructions. A Stream is reusable: Record keeps
// its buffers, so recording the next app allocates nothing once they
// have grown to size.
// A front (RecordFront) records every load or store as an L1D miss with
// its address, for Lockstep's live L1D: about two bytes per instruction.
// A front's base is the offset of its core's address space, so a
// private CMP core's addresses fit their 32-bit slots as a shared
// core's do.
type Stream struct {
	codes []byte   // two 4-bit codes per byte, the first in the low nibble
	rare  []byte   // the flag bytes of codeEscape instructions
	addrs []uint32 // the addresses less base, wideAddr for one that does not fit
	wide  []uint64 // the addresses stored as wideAddr
	base  uint64   // added to every address an addrs slot holds
	count int      // instructions recorded

	// The recording's L1 access and miss counts (a front's L1D ones are 0).
	fetches, iMisses, dAccesses, dMisses int64

	n          int64 // instruction budget the stream was recorded for
	front      bool  // recorded by RecordFront
	geo        cache.Geometry
	fetchBytes int
}

// Record runs the first n instructions of src through a cold front end
// for a core configured by cfg, overwriting s. A CPU with the same L1
// geometry and fetch block replays it with RunStream.
func (s *Stream) Record(src workload.Source, n int64, cfg Config) error {
	return s.recordFrom(src, n, cfg, false, 0)
}

// RecordFront is Record without the L1D: it records a front, which any
// number of cores with the same L1 geometry and fetch block time with
// Lockstep. Addresses are stored relative to base, the lowest address
// the source's core uses (0 for an unshifted source); any address
// decodes correctly, and one that is at least base and within 4 GB of
// it takes 4 bytes.
func (s *Stream) RecordFront(src workload.Source, n int64, cfg Config, base uint64) error {
	return s.recordFrom(src, n, cfg, true, base)
}

func (s *Stream) recordFrom(src workload.Source, n int64, cfg Config, front bool, base uint64) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	fe, err := newFrontEnd(cfg, front)
	if err != nil {
		return err
	}
	s.geo, s.fetchBytes = cfg.L1Geometry, cfg.FetchBytes
	// Every instruction takes a code, so size codes for the budget up
	// front (bounded, for effectively unbounded budgets over short
	// sources); the rest grows with the miss count.
	fits := true
	if want := int(min(n, 1<<21)+1) / 2; cap(s.codes) < want {
		s.codes, fits = make([]byte, 0, want), false
	}
	s.reset(n)
	s.front, s.base = front, base
	addrCap := cap(s.addrs)
	s.record(&fe, src)
	cache.ReleaseArrays(fe.arrays()...)
	if front && (!fits || cap(s.addrs) != addrCap) {
		// A front stays resident through every run that times it, on
		// every organization, so one whose lists had to grow keeps their
		// exact size rather than the slack they grew with. One recorded
		// into the lists of a recycled front that held it keeps those,
		// so recording the next app allocates nothing.
		s.codes, s.addrs = slices.Clone(s.codes), slices.Clone(s.addrs)
	}
	return nil
}

// reset empties s, keeping its buffers, for a recording of up to n
// instructions.
func (s *Stream) reset(n int64) {
	*s = Stream{codes: s.codes[:0], rare: s.rare[:0], addrs: s.addrs[:0], wide: s.wide[:0],
		n: n, geo: s.geo, fetchBytes: s.fetchBytes}
}

// record is the recording loop of Record, RecordFront and Run: each
// instruction's fetch and L1D access in program order, exactly as
// dispatch makes them on the live front end. Without an L1D (a front)
// every load or store keeps its address and no outcome.
//
//nurapid:hotpath
func (s *Stream) record(fe *frontEnd, src workload.Source) {
	for int64(s.count) < s.n {
		in, ok := src.Next()
		if !ok {
			return
		}
		f := byte(in.Kind) & recKind
		if in.Mispredicted {
			f |= recMispredict
		}
		if access, miss := fe.fetch(in.PC); access {
			f |= recFetch
			s.fetches++
			if miss {
				f |= recIMiss
				s.iMisses++
				s.addAddr(in.PC)
			}
		}
		if in.Kind == workload.Load || in.Kind == workload.Store {
			if fe.l1d == nil {
				s.addAddr(in.Addr)
			} else {
				out := fe.l1d.Access(in.Addr, in.Kind == workload.Store)
				s.dAccesses++
				if out.Hit {
					f |= recDHit
				} else {
					s.dMisses++
					s.addAddr(in.Addr)
				}
				if out.Evicted && out.Victim.Dirty {
					f |= recVictim
					s.addAddr(out.Victim.Addr)
				}
			}
		}
		code := codeEscape
		if f&(recIMiss|recVictim) == 0 {
			code = int(flagCode[flagIndex(f)])
		}
		if code == codeEscape {
			s.rare = append(s.rare, f)
		}
		if s.count&1 == 0 {
			s.codes = append(s.codes, byte(code))
		} else {
			s.codes[len(s.codes)-1] |= byte(code) << 4
		}
		s.count++
	}
}

// addAddr appends one address.
//
//nurapid:hotpath
func (s *Stream) addAddr(a uint64) {
	d := a - s.base
	if d >= wideAddr {
		s.wide = append(s.wide, a)
		d = wideAddr
	}
	s.addrs = append(s.addrs, uint32(d))
}

// checkCore panics unless cfg's front end is the one s was recorded for.
func (s *Stream) checkCore(cfg Config) {
	if s.geo != cfg.L1Geometry || s.fetchBytes != cfg.FetchBytes {
		panic(fmt.Sprintf("cpu: stream recorded for L1 %+v, fetch %d B; core has L1 %+v, fetch %d B",
			s.geo, s.fetchBytes, cfg.L1Geometry, cfg.FetchBytes))
	}
}

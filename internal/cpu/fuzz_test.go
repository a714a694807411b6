package cpu

import (
	"encoding/binary"
	"testing"

	"nurapid/internal/cache"
	"nurapid/internal/memsys"
	"nurapid/internal/workload"
)

// A fuzz input is a fixed header, then five bytes per instruction:
//
//	header: Width, ROB, LSQ, MSHRs, MispredictPenalty, L1Latency (one
//	byte each, reduced to small valid values); L1 geometry (capacity
//	256 B << (b&15)%9, associativity 1 << (b>>4)%3); stub L2 latency
//	(uint16, below 512); budget (uint32); flags (bit 0: the source loops; bits
//	1-2 and 3-4: PC and address strides); PC and address index spans
//	(uint16 each).
//	instruction: kind (bits 0-1), mispredicted (bit 2), word in its
//	fetch block (bits 3-5), a PC or an address above 4 GB (bits 6, 7);
//	PC index (uint16); address index (uint16).
//
// An index is reduced modulo its span+1 and scaled by its stride, so
// small spans keep the instructions in a few fetch blocks and L1 sets.
const (
	fuzzHeader   = 18
	fuzzInstr    = 5
	fuzzMaxInstr = 2048
	fuzzPC       = 0x400000
	fuzzAddr     = 0x10000000
	fuzzWide     = 1 << 40
	loopBudget   = 1 << 13
)

var fuzzStrides = [4]uint64{32, 128, 4096, 32768}

// decodeFuzz turns fuzz bytes into a valid core configuration, a stub
// latency, a program, whether it loops, and a budget; ok is false when
// data is too short for the header.
func decodeFuzz(data []byte) (cfg Config, latency int64, instrs []workload.Instr, loop bool, budget int64, ok bool) {
	if len(data) < fuzzHeader {
		return cfg, 0, nil, false, 0, false
	}
	h := data[:fuzzHeader]
	cfg = DefaultConfig()
	cfg.Width = 1 + int(h[0])%16
	cfg.ROB = 1 + int(h[1])%128
	cfg.LSQ = 1 + int(h[2])%64
	cfg.MSHRs = 1 + int(h[3])%16
	cfg.MispredictPenalty = int64(h[4]) % 32
	cfg.L1Latency = 1 + int64(h[5])%8
	capShift, assocShift := h[6]&15%9, h[6]>>4%3
	cfg.L1Geometry = cache.Geometry{CapacityBytes: 256 << capShift, BlockBytes: 32, Assoc: 1 << assocShift}
	latency = int64(binary.LittleEndian.Uint16(h[7:])) % 512
	budget = int64(binary.LittleEndian.Uint32(h[9:]))
	loop = h[13]&1 != 0
	pcStride, addrStride := fuzzStrides[h[13]>>1&3], fuzzStrides[h[13]>>3&3]
	pcSpan := uint64(binary.LittleEndian.Uint16(h[14:])) + 1
	addrSpan := uint64(binary.LittleEndian.Uint16(h[16:])) + 1
	for p := data[fuzzHeader:]; len(p) >= fuzzInstr && len(instrs) < fuzzMaxInstr; p = p[fuzzInstr:] {
		b := p[0]
		in := workload.Instr{
			Kind:         workload.Kind(b & 3),
			Mispredicted: b&4 != 0,
			PC:           fuzzPC + uint64(binary.LittleEndian.Uint16(p[1:]))%pcSpan*pcStride + uint64(b>>3&7)*4,
			Addr:         fuzzAddr + uint64(binary.LittleEndian.Uint16(p[3:]))%addrSpan*addrStride,
		}
		if b&0x40 != 0 {
			in.PC += fuzzWide
		}
		if b&0x80 != 0 {
			in.Addr += fuzzWide
		}
		instrs = append(instrs, in)
	}
	if len(instrs) == 0 {
		loop = false
	}
	if loop {
		budget %= loopBudget // a looping source runs to the budget: keep each input short
	}
	return cfg, latency, instrs, loop, budget, true
}

// encodeFuzz is decodeFuzz's inverse for the inputs it can express: the
// seed corpus writes the stall cases with it. It fails the test on a
// case outside the format.
func encodeFuzz(t testing.TB, cfg Config, latency int64, instrs []workload.Instr, loop bool, budget int64) []byte {
	t.Helper()
	const pcStride, addrStride = 4096, 32 // fuzzStrides[2] and [0]
	geo := byte(0)
	for geo < 9 && 256<<geo != cfg.L1Geometry.CapacityBytes {
		geo++
	}
	assoc := map[int]byte{1: 0, 2: 1, 4: 2}[cfg.L1Geometry.Assoc]
	if geo == 9 || cfg.L1Geometry.BlockBytes != 32 || 1<<assoc != cfg.L1Geometry.Assoc {
		t.Fatalf("L1 %+v is outside the fuzz format", cfg.L1Geometry)
	}
	h := []byte{byte(cfg.Width - 1), byte(cfg.ROB - 1), byte(cfg.LSQ - 1), byte(cfg.MSHRs - 1),
		byte(cfg.MispredictPenalty), byte(cfg.L1Latency - 1), geo | assoc<<4}
	h = binary.LittleEndian.AppendUint16(h, uint16(latency))
	h = binary.LittleEndian.AppendUint32(h, uint32(min(budget, 1<<32-1)))
	flags := byte(2<<1 | 0<<3)
	if loop {
		flags |= 1
	}
	h = append(h, flags)
	h = binary.LittleEndian.AppendUint16(h, 0xffff)
	h = binary.LittleEndian.AppendUint16(h, 0xffff)
	for _, in := range instrs {
		pc, word := (in.PC-fuzzPC)/pcStride, (in.PC-fuzzPC)%pcStride/4
		addr := uint64(0)
		if in.Kind == workload.Load || in.Kind == workload.Store {
			addr = (in.Addr - fuzzAddr) / addrStride
			if in.Addr < fuzzAddr || (in.Addr-fuzzAddr)%addrStride != 0 {
				t.Fatalf("address %#x is outside the fuzz format", in.Addr)
			}
		}
		if in.PC < fuzzPC || word > 7 || (in.PC-fuzzPC)%4 != 0 || pc > 0xffff || addr > 0xffff {
			t.Fatalf("instruction %+v is outside the fuzz format", in)
		}
		b := byte(in.Kind) | byte(word)<<3
		if in.Mispredicted {
			b |= 4
		}
		h = append(h, b)
		h = binary.LittleEndian.AppendUint16(h, uint16(pc))
		h = binary.LittleEndian.AppendUint16(h, uint16(addr))
	}
	return h
}

// FuzzBackEndMatchesStep holds Run and RunStream to the Step loop on
// decoded programs: small cores (including Width > ROB, LSQ >= ROB and a
// single MSHR), small L1s, a stub L2 of any latency and a budget that
// may exceed the program. checkRunMatchesStep compares every Result
// field and the whole lower-level request log. The seed corpus is the
// stall cases, each checked to decode back to itself (a looping one to
// its budget modulo loopBudget).
func FuzzBackEndMatchesStep(f *testing.F) {
	for _, tc := range stallCases() {
		data := encodeFuzz(f, tc.cfg, tc.latency, tc.instrs, tc.loop, tc.n)
		cfg, latency, instrs, loop, budget, ok := decodeFuzz(data)
		want := min(tc.n, 1<<32-1)
		if tc.loop {
			want %= loopBudget
		}
		if !ok || cfg != tc.cfg || latency != tc.latency || loop != tc.loop || budget != want || len(instrs) != len(tc.instrs) {
			f.Fatalf("%s: decoded cfg %+v latency %d loop %v budget %d, %d instructions", tc.name, cfg, latency, loop, budget, len(instrs))
		}
		for i, in := range instrs {
			if w := tc.instrs[i]; in.Kind != w.Kind || in.Mispredicted != w.Mispredicted || in.PC != w.PC || isMem(w.Kind) && in.Addr != w.Addr {
				f.Fatalf("%s: instruction %d decoded %+v, want %+v", tc.name, i, in, w)
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, latency, instrs, loop, budget, ok := decodeFuzz(data)
		if !ok {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded an invalid config: %v", err)
		}
		checkRunMatchesStep(t, func() memsys.LowerLevel { return newStubL2(latency) },
			func() workload.Source { return &fixedSource{instrs: instrs, loop: loop} }, budget, cfg, nil)
	})
}

// decodeLockstepFuzz turns fuzz bytes into a multi-core run: the first
// byte picks one to six cores (bits 0-2, modulo 6) and how their sources
// relate (bits 3-4, modulo 3): the same program on every core, run from
// one shared front, the program in a private address space per core, or
// the program started at a different point on each core, so the cores
// share blocks but not timing. The rest is decodeFuzz's format, with
// the MSHR file cut to at most four entries and the LSQ to at most
// eight, so misses wait for both; small address spans keep the cores on
// a few blocks, where shoot-downs fire.
func decodeLockstepFuzz(data []byte) (tc lockstepCase, ok bool) {
	if len(data) < 1 {
		return tc, false
	}
	cores, mode := 1+int(data[0]&7)%6, data[0]>>3&3%3
	cfg, latency, instrs, loop, budget, ok := decodeFuzz(data[1:])
	if !ok {
		return tc, false
	}
	cfg.MSHRs = 1 + (cfg.MSHRs-1)%4
	cfg.LSQ = 1 + (cfg.LSQ-1)%8
	tc = lockstepCase{
		mkL2: func() memsys.LowerLevel { return newStubL2(latency) },
		mkSrcs: func() []workload.Source {
			srcs := make([]workload.Source, cores)
			for i := range srcs {
				src := &fixedSource{instrs: instrs, loop: loop}
				switch mode {
				case 1:
					srcs[i] = &offsetSource{src, uint64(i) << 36}
					continue
				case 2:
					src.pos = i * len(instrs) / cores
				}
				srcs[i] = src
			}
			return srcs
		},
		n:      budget,
		cfg:    cfg,
		shared: mode == 0,
	}
	return tc, true
}

// FuzzLockstepMatchesStep holds Lockstep to the test-only Step lockstep
// loop on decoded multi-core runs over a shared stub: every core's
// Result, the shared request log (Now, Addr, Write, Core, DoneAt) and
// the shoot-down count. The seed corpus is the single-core stall cases
// at two and four cores, shared and skewed, and a loop of loads and
// stores over ten blocks of a small L1 at two to six cores and every
// sharing mode.
func FuzzLockstepMatchesStep(f *testing.F) {
	for _, tc := range stallCases() {
		data := encodeFuzz(f, tc.cfg, tc.latency, tc.instrs, tc.loop, tc.n)
		f.Add(append([]byte{1}, data...))
		f.Add(append([]byte{3 | 2<<3}, data...))
	}
	few := make([]workload.Instr, 64)
	for i := range few {
		few[i] = workload.Instr{Kind: workload.Kind(i % 4), PC: fuzzPC + uint64(i%8)*4, Addr: fuzzAddr + uint64(i*7%10)*32*5}
	}
	cfg := DefaultConfig()
	cfg.MSHRs, cfg.LSQ = 2, 4
	cfg.L1Geometry.CapacityBytes, cfg.L1Geometry.Assoc = 512, 1
	data := encodeFuzz(f, cfg, 40, few, true, 3000)
	for _, head := range []byte{1, 2 | 1<<3, 3 | 2<<3, 5, 4 | 1<<3} {
		f.Add(append([]byte{head}, data...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, ok := decodeLockstepFuzz(data)
		if !ok {
			return
		}
		if err := tc.cfg.Validate(); err != nil {
			t.Fatalf("decoded an invalid config: %v", err)
		}
		checkLockstep(t, tc, nil)
	})
}

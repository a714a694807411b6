package cpu

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/memsys/memtest"
	"nurapid/internal/uca"
	"nurapid/internal/workload"
)

// newStubL2 is the shared fixed-latency lower level (memtest.Stub).
func newStubL2(latency int64) *memtest.Stub { return memtest.NewStub(latency) }

// aluSource yields only ALU instructions at a fixed PC run.
type fixedSource struct {
	instrs []workload.Instr
	pos    int
	loop   bool
}

func (f *fixedSource) Next() (workload.Instr, bool) {
	if f.pos >= len(f.instrs) {
		if !f.loop {
			return workload.Instr{}, false
		}
		f.pos = 0
	}
	in := f.instrs[f.pos]
	f.pos++
	return in, true
}

func alus(n int) []workload.Instr {
	out := make([]workload.Instr, n)
	for i := range out {
		out[i] = workload.Instr{Kind: workload.ALU, PC: 0x400000 + uint64(i%8)*4}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Width = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero width must be rejected")
	}
	bad = DefaultConfig()
	bad.ROB = maxEntries + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("a window past the engine's rings must be rejected")
	}
	bad = DefaultConfig()
	bad.L1Geometry.BlockBytes = 33
	if err := bad.Validate(); err == nil {
		t.Fatal("bad L1 geometry must be rejected")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB = 0
	if _, err := New(newStubL2(10), WithConfig(cfg), WithL1EnergyNJ(0.5)); err == nil {
		t.Fatal("bad config must be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.LSQ = 0
	MustNew(newStubL2(10), WithConfig(cfg))
}

func TestALUThroughput(t *testing.T) {
	// Pure ALU code at full width: IPC should approach the width.
	c := MustNew(newStubL2(10), WithL1EnergyNJ(0.5))
	res := c.Run(&fixedSource{instrs: alus(64), loop: true}, 80000)
	if res.Instructions != 80000 {
		t.Fatalf("committed %d", res.Instructions)
	}
	if res.IPC < 6.0 {
		t.Fatalf("ALU IPC = %.2f, want near width 8", res.IPC)
	}
}

func TestMispredictsCutIPC(t *testing.T) {
	run := func(mispredict bool) float64 {
		instrs := alus(16)
		instrs[7] = workload.Instr{Kind: workload.Branch, PC: 0x400000, Mispredicted: mispredict}
		c := MustNew(newStubL2(10), WithL1EnergyNJ(0.5))
		return c.Run(&fixedSource{instrs: instrs, loop: true}, 40000).IPC
	}
	good, bad := run(false), run(true)
	if bad >= good*0.8 {
		t.Fatalf("mispredicts must cut IPC: %.2f -> %.2f", good, bad)
	}
}

func TestLoadsHitL1(t *testing.T) {
	instrs := []workload.Instr{
		{Kind: workload.Load, PC: 0x400000, Addr: 0x10000000},
	}
	c := MustNew(newStubL2(50), WithL1EnergyNJ(0.5))
	res := c.Run(&fixedSource{instrs: instrs, loop: true}, 10000)
	if res.L1DAccesses != 10000 {
		t.Fatalf("L1D accesses = %d", res.L1DAccesses)
	}
	if res.L1DMisses != 1 {
		t.Fatalf("L1D misses = %d, want 1 (only the cold miss)", res.L1DMisses)
	}
	// One data miss plus at most one instruction-fetch miss reach L2.
	if res.L2Accesses > 2 {
		t.Fatalf("L2 accesses = %d, want <= 2", res.L2Accesses)
	}
}

func TestL2LatencyHurtsIPC(t *testing.T) {
	// A pointer-chase-like stream of L1-missing loads: slower L2 must
	// yield lower IPC.
	stream := func() workload.Source {
		app, _ := workload.ByName("mcf")
		return workload.MustNewGenerator(app, 1)
	}
	run := func(lat int64) float64 {
		c := MustNew(newStubL2(lat), WithL1EnergyNJ(0.5))
		return c.Run(stream(), 100000).IPC
	}
	fast, slow := run(14), run(60)
	if slow >= fast {
		t.Fatalf("IPC with 60-cycle L2 (%.3f) must be below 14-cycle (%.3f)", slow, fast)
	}
}

func TestMSHRsBoundOutstandingMisses(t *testing.T) {
	// Distinct-block loads missing in L1 with a slow L2: only MSHRs many
	// can be outstanding, throttling IPC versus an unbounded window.
	many := DefaultConfig()
	few := DefaultConfig()
	few.MSHRs = 1
	mk := func(cfg Config) float64 {
		instrs := make([]workload.Instr, 256)
		for i := range instrs {
			instrs[i] = workload.Instr{Kind: workload.Load, PC: 0x400000,
				Addr: 0x10000000 + uint64(i)*4096}
		}
		c := MustNew(newStubL2(100), WithConfig(cfg), WithL1EnergyNJ(0.5))
		return c.Run(&fixedSource{instrs: instrs, loop: true}, 20000).IPC
	}
	if mk(few) >= mk(many)*0.7 {
		t.Fatalf("1 MSHR (%.3f) must be much slower than 8 (%.3f)", mk(few), mk(many))
	}
}

func TestSourceExhaustionStopsRun(t *testing.T) {
	c := MustNew(newStubL2(10), WithL1EnergyNJ(0.5))
	res := c.Run(&fixedSource{instrs: alus(100)}, 1<<40)
	if res.Instructions != 100 {
		t.Fatalf("committed %d, want 100", res.Instructions)
	}
	if res.Cycles <= 0 {
		t.Fatal("cycles must advance")
	}
}

func TestResultMetrics(t *testing.T) {
	app, _ := workload.ByName("applu")
	c := MustNew(newStubL2(20), WithL1EnergyNJ(0.57))
	res := c.Run(workload.MustNewGenerator(app, 2), 50000)
	if res.Instructions != 50000 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	if res.IPC <= 0 || res.IPC > 8 {
		t.Fatalf("IPC = %v out of range", res.IPC)
	}
	if res.APKI <= 0 {
		t.Fatal("APKI must be positive for a high-load app")
	}
	if res.L1EnergyNJ <= 0 {
		t.Fatal("L1 energy must accumulate")
	}
	if res.L1IAccesses == 0 {
		t.Fatal("instruction fetches must access the L1I")
	}
}

func TestIntegrationWithBaseHierarchy(t *testing.T) {
	// End to end: generator -> CPU -> L1s -> base L2/L3 -> memory.
	app, _ := workload.ByName("equake")
	mem := memsys.NewMemory(128)
	base := uca.NewHierarchy(cacti.Default(), mem)
	c := MustNew(base, WithL1EnergyNJ(0.57))
	res := c.Run(workload.MustNewGenerator(app, 3), 100000)
	if res.IPC <= 0 {
		t.Fatal("IPC must be positive")
	}
	if base.Counters().Get("accesses") != res.L2Accesses {
		t.Fatalf("CPU counted %d L2 accesses, hierarchy %d",
			res.L2Accesses, base.Counters().Get("accesses"))
	}
	if mem.Accesses == 0 {
		t.Fatal("some accesses must reach memory")
	}
}

var _ workload.Source = (*fixedSource)(nil)

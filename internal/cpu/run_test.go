package cpu

import (
	"testing"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/uca"
	"nurapid/internal/workload"
)

// recordingL2 forwards to an organization and logs the fields of every
// request the core sets, so two runs can be compared request by request.
type recordingL2 struct {
	memsys.LowerLevel
	reqs []memsys.Req
}

func (r *recordingL2) Access(req memsys.Req) memsys.AccessResult {
	r.reqs = append(r.reqs, memsys.Req{Now: req.Now, Addr: req.Addr, Write: req.Write, Core: req.Core})
	return r.LowerLevel.Access(req)
}

func isMem(k workload.Kind) bool { return k == workload.Load || k == workload.Store }

// stepRun drives c through a plain Start/for-Step loop (no fast-forward)
// and checks after every cycle that a pending instruction sits in the
// current fetch block, the invariant skipIdle relies on. seen is called
// after every Step that returned true.
func stepRun(t *testing.T, c *CPU, src workload.Source, n int64, seen func(*CPU)) Result {
	t.Helper()
	c.Start(src, n)
	for c.Step() {
		if c.hasPending && c.curFetchBlock != c.pending.PC>>c.fetchShift {
			t.Fatalf("cycle %d: pending PC %#x outside current fetch block %#x",
				c.cycle, c.pending.PC, c.curFetchBlock)
		}
		if seen != nil {
			seen(c)
		}
	}
	return c.Result()
}

// checkRunMatchesStep runs the same core configuration through Run and
// through stepRun on fresh lower levels and sources, and fails unless
// the Results and the lower-level request streams are identical. It
// returns the step loop's Result.
func checkRunMatchesStep(t *testing.T, mkL2 func() memsys.LowerLevel, mkSrc func() workload.Source,
	n int64, cfg Config, seen func(*CPU)) Result {
	t.Helper()
	fast := &recordingL2{LowerLevel: mkL2()}
	want := &recordingL2{LowerLevel: mkL2()}
	got := MustNew(fast, WithConfig(cfg), WithL1EnergyNJ(0.57)).Run(mkSrc(), n)
	ref := stepRun(t, MustNew(want, WithConfig(cfg), WithL1EnergyNJ(0.57)), mkSrc(), n, seen)
	if got != ref {
		t.Fatalf("Run result differs from the Step loop:\n run  %+v\n step %+v", got, ref)
	}
	if len(fast.reqs) != len(want.reqs) {
		t.Fatalf("Run issued %d lower-level requests, the Step loop %d", len(fast.reqs), len(want.reqs))
	}
	for i := range want.reqs {
		if fast.reqs[i] != want.reqs[i] {
			t.Fatalf("request %d: Run %+v, Step loop %+v", i, fast.reqs[i], want.reqs[i])
		}
	}
	return ref
}

// TestRunMatchesStepLoopOnFig6Apps holds Run to the plain Step loop on
// the benchmark's five applications under NuRAPID and the base L2.
func TestRunMatchesStepLoopOnFig6Apps(t *testing.T) {
	n := int64(100_000)
	if testing.Short() {
		n = 20_000
	}
	orgs := []struct {
		name string
		mk   func() memsys.LowerLevel
	}{
		{"nurapid", func() memsys.LowerLevel {
			return nurapid.MustNew(nurapid.DefaultConfig(), cacti.Default(), memsys.NewMemory(uca.BlockBytes))
		}},
		{"base", func() memsys.LowerLevel { return uca.NewHierarchy(cacti.Default(), memsys.NewMemory(uca.BlockBytes)) }},
	}
	for _, name := range []string{"applu", "art", "mcf", "galgel", "gzip"} {
		app, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown app %s", name)
		}
		for _, org := range orgs {
			t.Run(name+"/"+org.name, func(t *testing.T) {
				mkSrc := func() workload.Source { return workload.MustNewGenerator(app, 1) }
				res := checkRunMatchesStep(t, org.mk, mkSrc, n, DefaultConfig(), nil)
				if res.Instructions != n {
					t.Fatalf("committed %d of %d", res.Instructions, n)
				}
				// The fast-forward must actually skip cycles.
				c := MustNew(org.mk(), WithL1EnergyNJ(0.57))
				c.Start(mkSrc(), n)
				steps := int64(0)
				for c.Step() {
					steps++
					c.skipIdle()
				}
				if steps >= res.Cycles {
					t.Fatalf("%d Steps for %d cycles: no cycle was skipped", steps, res.Cycles)
				}
			})
		}
	}
}

// TestRunMatchesStepLoopAtEveryStall drives stub-L2 streams that reach
// each way dispatch blocks, and requires both that the stream reaches
// the case (observed in the Step loop) and that Run matches it exactly.
func TestRunMatchesStepLoopAtEveryStall(t *testing.T) {
	const pc = 0x400000
	loads := func(n int, stride uint64) []workload.Instr {
		out := make([]workload.Instr, n)
		for i := range out {
			out[i] = workload.Instr{Kind: workload.Load, PC: pc, Addr: 0x10000000 + uint64(i)*stride}
		}
		return out
	}
	// One distinct-block load, then width-many ALUs in the same fetch block.
	loadThenALUs := func(n int) []workload.Instr {
		out := make([]workload.Instr, 0, n*9)
		for i := 0; i < n; i++ {
			out = append(out, workload.Instr{Kind: workload.Load, PC: pc, Addr: 0x10000000 + uint64(i)*4096})
			for j := 0; j < 8; j++ {
				out = append(out, workload.Instr{Kind: workload.ALU, PC: pc + uint64(j)*4})
			}
		}
		return out
	}
	withLSQ := func(lsq int) Config { c := DefaultConfig(); c.LSQ = lsq; return c }
	withMSHRs := func(m int) Config { c := DefaultConfig(); c.MSHRs = m; return c }
	mispredicts := alus(16)
	mispredicts[5] = workload.Instr{Kind: workload.Branch, PC: pc + 20, Mispredicted: true}
	spread := make([]workload.Instr, 512)
	for i := range spread {
		spread[i] = workload.Instr{Kind: workload.ALU, PC: pc + uint64(i)*4096}
	}
	// A stalled pending load that is the budget's last instruction: LSQ=1
	// and every load misses, so each load waits for its predecessor.
	const budget = 301

	cases := []struct {
		name    string
		instrs  []workload.Instr
		loop    bool
		n       int64
		latency int64
		cfg     Config
		reached func(*CPU) bool
	}{
		{"rob-full", loadThenALUs(64), true, 20_000, 300, DefaultConfig(),
			func(c *CPU) bool { return c.used == c.cfg.ROB }},
		{"lsq-full", loads(64, 4096), true, 5_000, 200, withLSQ(2),
			func(c *CPU) bool { return c.hasPending && isMem(c.pending.Kind) && c.lsqUsed >= c.cfg.LSQ }},
		{"mshr-full", loads(256, 4096), true, 5_000, 100, withMSHRs(1),
			func(c *CPU) bool {
				return c.hasPending && isMem(c.pending.Kind) && c.lsqUsed < c.cfg.LSQ &&
					c.stallUntil > c.cycle && c.stallUntil == c.mshr.EarliestDone()
			}},
		{"i-miss", spread, true, 5_000, 50, DefaultConfig(),
			func(c *CPU) bool { return c.hasPending && c.pending.Kind == workload.ALU && c.stallUntil > c.cycle }},
		{"mispredict-redirect", mispredicts, true, 20_000, 10, DefaultConfig(),
			func(c *CPU) bool { return !c.hasPending && c.stallUntil > c.cycle }},
		{"source-exhausted-mid-window", loadThenALUs(40), false, 1 << 40, 300, DefaultConfig(),
			func(c *CPU) bool { return c.sourceDone && c.used > 0 }},
		{"budget-reached-with-pending", loads(512, 4096), true, budget, 80, withLSQ(1),
			func(c *CPU) bool {
				return c.hasPending && c.lsqUsed >= c.cfg.LSQ && c.committed+int64(c.used)+1 == budget
			}},
		{"budget-reached-draining", loadThenALUs(64), true, 1_001, 300, DefaultConfig(),
			func(c *CPU) bool { return !c.hasPending && c.used > 0 && c.committed+int64(c.used) >= 1_001 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hit := 0
			seen := func(c *CPU) {
				if tc.reached(c) {
					hit++
				}
			}
			mkL2 := func() memsys.LowerLevel { return newStubL2(tc.latency) }
			mkSrc := func() workload.Source { return &fixedSource{instrs: tc.instrs, loop: tc.loop} }
			res := checkRunMatchesStep(t, mkL2, mkSrc, tc.n, tc.cfg, seen)
			if hit == 0 {
				t.Fatalf("stream never reached the %s case (result %+v)", tc.name, res)
			}
		})
	}
}

// TestStaleMSHRMerge pins a known deviation (DESIGN §5): MSHRFile.Lookup
// does not expire entries, so an L1D miss to a 128-B lower-level block
// whose earlier fill has already completed — with no L1D miss in
// between to expire it — "merges" into the dead entry. The miss
// completes at the old fill time and sends no lower-level request.
// Fixing it changes simulated IPC; until a deliberate re-baseline does,
// this test holds today's behaviour in place.
func TestStaleMSHRMerge(t *testing.T) {
	const (
		pc      = 0x400000
		a       = 0x10000000 // 128-B aligned
		latency = 10
	)
	instrs := []workload.Instr{{Kind: workload.Load, PC: pc, Addr: a}}
	instrs = append(instrs, alus(400)...) // long past the fill, same fetch block
	// Same 128-B block, different 32-B L1 block: an L1D miss.
	instrs = append(instrs, workload.Instr{Kind: workload.Load, PC: pc, Addr: a + 32})

	stub := newStubL2(latency)
	stub.Record = true
	c := MustNew(stub)
	c.Start(&fixedSource{instrs: instrs}, int64(len(instrs)))
	var staleDone, dispatchedAt int64 = -1, -1
	for c.Step() {
		if staleDone < 0 && c.l1d.Accesses == 2 {
			last := c.tail - 1
			if last < 0 {
				last = c.cfg.ROB - 1
			}
			staleDone, dispatchedAt = c.rob[last].done, c.cycle-1
		}
	}
	res := c.Result()

	if res.L1DMisses != 2 {
		t.Fatalf("L1D misses = %d, want 2", res.L1DMisses)
	}
	// One I-fetch miss and one data miss reach the lower level; the
	// second data miss does not.
	if len(stub.Reqs) != 2 || stub.Reqs[1].Addr != a {
		t.Fatalf("lower-level requests %+v, want the I-fetch and the first load only", stub.Reqs)
	}
	firstFill := stub.Reqs[1].Now + latency + c.cfg.L1Latency
	if staleDone != firstFill {
		t.Fatalf("stale merge completes at %d, want the old fill time %d", staleDone, firstFill)
	}
	if dispatchedAt <= firstFill {
		t.Fatalf("second load dispatched at %d, not after the first fill at %d", dispatchedAt, firstFill)
	}
	// Allocate expires the dead entry first, so the "merge" is counted
	// as a fresh allocation carrying the old fill time.
	if c.mshr.Allocations != 2 || c.mshr.Merges != 0 {
		t.Fatalf("MSHR allocations=%d merges=%d, want 2 and 0", c.mshr.Allocations, c.mshr.Merges)
	}
}

// BenchmarkCPURun measures the core layer alone: the applu generator
// through the OOO core and L1s against a fixed-latency stub L2, reported
// per committed instruction.
func BenchmarkCPURun(b *testing.B) {
	const n = 400_000
	app, _ := workload.ByName("applu")
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := MustNew(newStubL2(20), WithL1EnergyNJ(0.57))
		gen := workload.MustNewGenerator(app, 1)
		b.StartTimer()
		start := time.Now()
		if res := c.Run(gen, n); res.Instructions != n {
			b.Fatalf("committed %d of %d", res.Instructions, n)
		}
		elapsed += time.Since(start)
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(int64(b.N)*n), "ns/instr")
}

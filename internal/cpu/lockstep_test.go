package cpu

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/uca"
	"nurapid/internal/workload"
)

// sharedL2 is one lower level shared by several cores, reached the way
// cmp.System's cores reach theirs: each core through its own
// sharedPort, which stamps the core id, waits for the one request port
// (so same-cycle requests complete in arrival order), forwards the
// request, logs it with its completion cycle, and then, for a write,
// shoots the block down from every other core's L1D, emitting one
// obs.KindInval per dropped copy into the event log.
type sharedL2 struct {
	memsys.LowerLevel
	port   memsys.Port
	cores  []*CPU
	reqs   []loggedReq
	invals int64
	events eventLog
	// onShootDown, when set, sees every shoot-down attempt, before it.
	onShootDown func(victim int, addr uint64)
}

// sharedOccupancy is the shared port's cycles per request.
const sharedOccupancy = 2

type sharedPort struct {
	*sharedL2
	core int
}

func (p *sharedPort) Access(req memsys.Req) memsys.AccessResult {
	req.Core = p.core
	req.Now = p.port.Acquire(req.Now, sharedOccupancy)
	r := p.LowerLevel.Access(req)
	p.reqs = append(p.reqs, loggedReq{memsys.Req{Now: req.Now, Addr: req.Addr, Write: req.Write, Core: req.Core}, r.DoneAt})
	if req.Write {
		for i, c := range p.cores {
			if i == p.core {
				continue
			}
			if p.onShootDown != nil {
				p.onShootDown(i, req.Addr)
			}
			if c.InvalidateL1(req.Addr) {
				p.invals++
				p.events.Emit(obs.Inval(r.DoneAt, req.Addr, i))
			}
		}
	}
	return r
}

// eventLog records an obs event stream.
type eventLog struct{ events []obs.Event }

func (e *eventLog) Emit(ev obs.Event) { e.events = append(e.events, ev) }

// lockstepRun is what one multi-core run leaves: each core's Result, the
// shared level's request log, the shoot-down count and the event stream
// (the organization's, when it takes a probe, and the shoot-downs').
type lockstepRun struct {
	results []Result
	reqs    []loggedReq
	invals  int64
	events  []obs.Event
}

// newShared builds cores cores on a fresh shared level.
func newShared(l2 memsys.LowerLevel, cores int, cfg Config) (*sharedL2, []*CPU) {
	s := &sharedL2{LowerLevel: l2}
	if p, ok := l2.(obs.Probeable); ok {
		p.SetProbe(&s.events)
	}
	s.cores = make([]*CPU, cores)
	for i := range s.cores {
		s.cores[i] = MustNew(&sharedPort{s, i}, WithConfig(cfg), WithL1EnergyNJ(0.57))
	}
	return s, s.cores
}

// stepLockstep is the reference lockstep loop: every running core steps
// one cycle per round, and round t starts at core t mod n, so core i
// steps ((i-t) mod n)-th. reached, when set, is called after every Step.
func stepLockstep(cores []*stepCore, reached func(i int, c *stepCore)) {
	n := len(cores)
	finished := make([]bool, n)
	for running, cycle := n, 0; running > 0; cycle++ {
		for k := 0; k < n; k++ {
			i := (cycle + k) % n
			if finished[i] {
				continue
			}
			if !cores[i].Step() {
				finished[i] = true
				running--
			} else if reached != nil {
				reached(i, cores[i])
			}
		}
	}
}

// summary collects a finished run.
func (s *sharedL2) summary(t testing.TB) lockstepRun {
	t.Helper()
	run := lockstepRun{reqs: s.reqs, invals: s.invals, events: s.events.events}
	var invals int64
	for _, c := range s.cores {
		run.results = append(run.results, c.Result())
		invals += c.Result().L1DInvals
	}
	if invals != s.invals {
		t.Fatalf("the cores absorbed %d shoot-downs, the shared level dropped %d lines", invals, s.invals)
	}
	return run
}

// lockstepCase is one multi-core run: a fresh shared level, one source
// per core, a budget and a core configuration. When shared, the sources
// yield one stream, and Lockstep runs every core from one front.
type lockstepCase struct {
	mkL2   func() memsys.LowerLevel
	mkSrcs func() []workload.Source
	n      int64
	cfg    Config
	shared bool
}

// recordFront records src's first n instructions as a front for cfg,
// based at src's offset when it is an offsetSource, as cmp bases a
// Private core's front.
func recordFront(t testing.TB, src workload.Source, n int64, cfg Config) *Stream {
	t.Helper()
	var base uint64
	if o, ok := src.(*offsetSource); ok {
		base = o.offset
	}
	return recordFrontAt(t, src, n, cfg, base)
}

// recordFrontAt records src's first n instructions as a front for cfg,
// its addresses stored relative to base.
func recordFrontAt(t testing.TB, src workload.Source, n int64, cfg Config, base uint64) *Stream {
	t.Helper()
	s := &Stream{}
	if err := s.RecordFront(src, n, cfg, base); err != nil {
		t.Fatal(err)
	}
	return s
}

// fronts records tc's fronts from fresh sources: one, when shared, or
// one per core.
func (tc lockstepCase) fronts(t testing.TB) []*Stream {
	t.Helper()
	srcs := tc.mkSrcs()
	if tc.shared {
		srcs = srcs[:1]
	}
	fronts := make([]*Stream, len(srcs))
	for i, src := range srcs {
		fronts[i] = recordFront(t, src, tc.n, tc.cfg)
	}
	return fronts
}

// checkLockstep runs tc through the test-only Step lockstep loop (the
// reference), on fresh lower levels and sources, and through Lockstep
// from tc's fronts, and fails unless every core's Result (L1 counts and
// energy included), the shared request log (completion cycles
// included), the shoot-down count and the event stream are identical.
// hook, when set, is installed on the reference run's shared level and
// Step loop with the reference cores in hand. It returns the reference
// run.
func checkLockstep(t testing.TB, tc lockstepCase, hook func(s *sharedL2, cores []*stepCore) func(i int, c *stepCore)) lockstepRun {
	t.Helper()
	srcs := tc.mkSrcs()
	ref, cores := newShared(tc.mkL2(), len(srcs), tc.cfg)
	stepped := make([]*stepCore, len(cores))
	for i, c := range cores {
		stepped[i] = c.Start(srcs[i], tc.n)
	}
	var reached func(int, *stepCore)
	if hook != nil {
		reached = hook(ref, stepped)
	}
	stepLockstep(stepped, reached)
	want := ref.summary(t)

	got, cores := newShared(tc.mkL2(), len(srcs), tc.cfg)
	Lockstep(cores, tc.fronts(t))
	compareLockstep(t, got.summary(t), want)
	return want
}

// compareLockstep fails unless got matches the reference run want.
func compareLockstep(t testing.TB, got, want lockstepRun) {
	t.Helper()
	for i := range want.results {
		if got.results[i] != want.results[i] {
			t.Fatalf("core %d result differs from the Step loop's:\n got  %+v\n step %+v", i, got.results[i], want.results[i])
		}
	}
	if got.invals != want.invals {
		t.Fatalf("%d shoot-downs, the Step loop %d", got.invals, want.invals)
	}
	if len(got.reqs) != len(want.reqs) {
		t.Fatalf("%d shared-level requests, the Step loop %d", len(got.reqs), len(want.reqs))
	}
	for i := range want.reqs {
		if got.reqs[i] != want.reqs[i] {
			t.Fatalf("request %d: %+v, Step loop %+v", i, got.reqs[i], want.reqs[i])
		}
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%d events, the Step loop %d", len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("event %d: %+v, Step loop %+v", i, got.events[i], want.events[i])
		}
	}
}

// offsetSource moves a source's PCs and addresses by offset, so cores
// given different offsets share no block.
type offsetSource struct {
	src    workload.Source
	offset uint64
}

func (o *offsetSource) Next() (workload.Instr, bool) {
	in, ok := o.src.Next()
	in.PC += o.offset
	if isMem(in.Kind) {
		in.Addr += o.offset
	}
	return in, ok
}

// appSources gives each of cores cores app's stream at seed 1: the same
// stream (shared), or per-core seeds in disjoint address spaces
// (private).
func appSources(app workload.App, cores int, private bool) func() []workload.Source {
	return func() []workload.Source {
		srcs := make([]workload.Source, cores)
		for i := range srcs {
			if private {
				srcs[i] = &offsetSource{workload.MustNewGenerator(app, 1+uint64(i)), uint64(i) << 36}
			} else {
				srcs[i] = workload.MustNewGenerator(app, 1)
			}
		}
		return srcs
	}
}

// sharedOrgs are the shared levels the app tests run on.
func sharedOrgs() []struct {
	name string
	mk   func() memsys.LowerLevel
} {
	return []struct {
		name string
		mk   func() memsys.LowerLevel
	}{
		{"base", func() memsys.LowerLevel { return uca.NewHierarchy(cacti.Default(), memsys.NewMemory(uca.BlockBytes)) }},
		{"nurapid-4g", func() memsys.LowerLevel {
			return nurapid.MustNew(nurapid.DefaultConfig(), cacti.Default(), memsys.NewMemory(uca.BlockBytes))
		}},
		{"dnuca", func() memsys.LowerLevel {
			return nuca.MustNew(nuca.DefaultConfig(), cacti.Default(), memsys.NewMemory(nuca.BlockBytes))
		}},
	}
}

// TestLockstepMatchesStepOnEveryApp holds Lockstep to the Step lockstep
// loop on every roster application under the base hierarchy, NuRAPID
// and D-NUCA, at two cores running the same stream: the case with the
// most same-cycle ties and shoot-downs.
func TestLockstepMatchesStepOnEveryApp(t *testing.T) {
	n := int64(100_000)
	if testing.Short() {
		n = 20_000
	}
	for _, app := range workload.Apps() {
		for _, org := range sharedOrgs() {
			t.Run(app.Name+"/"+org.name, func(t *testing.T) {
				ref := checkLockstep(t, lockstepCase{org.mk, appSources(app, 2, false), n, DefaultConfig(), true}, nil)
				if ref.results[0].Instructions != n || ref.results[1].Instructions != n {
					t.Fatalf("committed %d and %d of %d", ref.results[0].Instructions, ref.results[1].Instructions, n)
				}
			})
		}
	}
}

// TestLockstepMatchesStepAtEveryCoreCount covers one to six cores,
// shared and private, so the picker's rotation runs at core counts
// that are not powers of two, and requires shoot-downs exactly where
// the cores share blocks.
func TestLockstepMatchesStepAtEveryCoreCount(t *testing.T) {
	n := int64(30_000)
	if testing.Short() {
		n = 8_000
	}
	app, _ := workload.ByName("mcf")
	org := sharedOrgs()[1]
	for cores := 1; cores <= 6; cores++ {
		for _, private := range []bool{false, true} {
			ref := checkLockstep(t, lockstepCase{org.mk, appSources(app, cores, private), n, DefaultConfig(), !private}, nil)
			if shares := cores > 1 && !private; (ref.invals > 0) != shares {
				t.Fatalf("%d cores, private %v: %d shoot-downs", cores, private, ref.invals)
			}
		}
	}
}

// TestCycleModMatchesRemainder holds the lockstep driver's
// division-free t mod n to the % operator at one to nine cores, over
// event cycles that stay, step by a few cycles, jump by hundreds, or
// jump by 2^32 and more.
func TestCycleModMatchesRemainder(t *testing.T) {
	rng := mathx.NewRNG(11)
	for n := 1; n <= 9; n++ {
		m := newCycleMod(n)
		cycle := int64(0)
		for k := 0; k < 20_000; k++ {
			switch r := rng.Intn(100); {
			case r < 40:
			case r < 80:
				cycle += rng.Int63n(int64(2 * n))
			case r < 98:
				cycle += rng.Int63n(1000)
			default:
				cycle += rng.Int63n(1 << 40)
			}
			if got, want := m.of(cycle), int(cycle%int64(n)); got != want {
				t.Fatalf("%d cores, cycle %d: %d, want %d", n, cycle, got, want)
			}
		}
	}
}

// TestLockstepMatchesStepOnSmallCores runs the mcf and art streams on
// cores with one or two MSHRs and a short LSQ, where misses wait for a
// full MSHR file, and requires the Step loop to reach such a wait.
func TestLockstepMatchesStepOnSmallCores(t *testing.T) {
	for _, name := range []string{"mcf", "art"} {
		app, _ := workload.ByName(name)
		for _, mshrs := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.MSHRs, cfg.LSQ = mshrs, 4
			waits := 0
			checkLockstep(t, lockstepCase{sharedOrgs()[1].mk, appSources(app, 3, false), 10_000, cfg, true},
				func(*sharedL2, []*stepCore) func(int, *stepCore) {
					return func(_ int, c *stepCore) {
						if mshrWait(c) {
							waits++
						}
					}
				})
			if waits == 0 {
				t.Fatalf("%s, %d MSHRs: no core waited for a full MSHR file", name, mshrs)
			}
		}
	}
}

// mshrWait reports whether c's next instruction is a load or store
// waiting for a full MSHR file.
func mshrWait(c *stepCore) bool {
	return c.hasPending && isMem(c.pending.Kind) && c.stallUntil > c.cycle && c.stallUntil == c.mshr.EarliestDone()
}

// TestLockstepShootDownOnWaitingCore builds the two orders a paused
// core's L1D event must respect, each on two cores over a 100-cycle
// stub. Core 0 loads A, then block B; core 1 runs ALU ops in one fetch
// block and then stores to B, which shoots B down in core 0:
//
//   - mshr-wait: with one MSHR, core 0's load of B probes the L1D in the
//     cycle after A's miss, finds the file full and waits for A's fill;
//     core 1's store lands in that wait. The load's access must come
//     after the shoot-down, so nothing is dropped.
//   - lsq-wait: with one LSQ entry, core 0 loads B, then A, then B again;
//     core 1's store lands while the second load of B waits for the LSQ,
//     after its dispatch was first tried. The shoot-down drops B, so the
//     second load must miss.
//
// Each case requires the reference run to reach that shoot-down.
func TestLockstepShootDownOnWaitingCore(t *testing.T) {
	const (
		pc = 0x400000
		a  = 0x10000000
		b  = 0x10100000
	)
	load := func(addr uint64) workload.Instr { return workload.Instr{Kind: workload.Load, PC: pc, Addr: addr} }
	storer := func(alu int) []workload.Instr {
		return append(alus(alu), workload.Instr{Kind: workload.Store, PC: pc, Addr: b})
	}
	withMSHRs, withLSQ := DefaultConfig(), DefaultConfig()
	withMSHRs.MSHRs, withLSQ.LSQ = 1, 1
	// waitsOnB reports whether the instruction core 0 waits to dispatch
	// is its load of B with index i (all before it dispatched).
	waitsOnB := func(c *stepCore, i int64) bool {
		return c.hasPending && c.pending.Addr == b && c.committed+int64(c.used) == i
	}
	for _, tc := range []struct {
		name         string
		core0, core1 []workload.Instr
		cfg          Config
		waiting      func(c *stepCore) bool
		dropped      bool
	}{
		{"mshr-wait", append([]workload.Instr{load(a), load(b)}, alus(8)...), storer(400), withMSHRs,
			func(c *stepCore) bool { return waitsOnB(c, 1) && mshrWait(c) }, false},
		{"lsq-wait", append([]workload.Instr{load(b), load(a), load(b)}, alus(8)...), storer(1200), withLSQ,
			func(c *stepCore) bool { return waitsOnB(c, 2) && c.lsqUsed == c.cfg.LSQ }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkSrcs := func() []workload.Source {
				return []workload.Source{&fixedSource{instrs: tc.core0}, &fixedSource{instrs: tc.core1}}
			}
			landed := false
			ref := checkLockstep(t, lockstepCase{func() memsys.LowerLevel { return newStubL2(100) }, mkSrcs, 1 << 20, tc.cfg, false},
				func(s *sharedL2, cores []*stepCore) func(int, *stepCore) {
					s.onShootDown = func(victim int, addr uint64) {
						landed = landed || victim == 0 && addr == b && tc.waiting(cores[0])
					}
					return nil
				})
			if !landed {
				t.Fatal("core 1's store never shot B down while core 0's load of B waited")
			}
			if dropped := ref.invals > 0; dropped != tc.dropped {
				t.Fatalf("%d shoot-downs dropped a line, want dropped=%v", ref.invals, tc.dropped)
			}
		})
	}
}

// TestLockstepBudgetAndDrySource covers a zero budget, a budget below the
// sources' length and sources that run dry at different points.
func TestLockstepBudgetAndDrySource(t *testing.T) {
	progs := [][]workload.Instr{alus(100), append(alus(37), workload.Instr{Kind: workload.Load, PC: 0x400000, Addr: 0x10000000})}
	mkSrcs := func() []workload.Source {
		return []workload.Source{&fixedSource{instrs: progs[0]}, &fixedSource{instrs: progs[1]}, &fixedSource{}}
	}
	for _, n := range []int64{0, 20, 1 << 20} {
		ref := checkLockstep(t, lockstepCase{func() memsys.LowerLevel { return newStubL2(30) }, mkSrcs, n, DefaultConfig(), false}, nil)
		for i, want := range []int64{min(n, 100), min(n, 38), 0} {
			if ref.results[i].Instructions != want {
				t.Fatalf("budget %d: core %d committed %d, want %d", n, i, ref.results[i].Instructions, want)
			}
		}
	}
}

// TestStreamKindChecked requires each engine to refuse the other's
// recording: RunStream a front, whose loads and stores carry no L1D
// outcome, and Lockstep a full stream, whose L1D outcomes were resolved
// without the other cores.
func TestStreamKindChecked(t *testing.T) {
	app, _ := workload.ByName("gzip")
	mkSrc := func() workload.Source { return workload.MustNewGenerator(app, 1) }
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	front := recordFront(t, mkSrc(), 1000, DefaultConfig())
	full := record(t, mkSrc, 1000, DefaultConfig())
	mustPanic("RunStream on a front", func() { MustNew(newStubL2(20)).RunStream(front) })
	_, cores := newShared(newStubL2(20), 2, DefaultConfig())
	mustPanic("Lockstep on a full stream", func() { Lockstep(cores, []*Stream{full}) })
	_, cores = newShared(newStubL2(20), 3, DefaultConfig())
	mustPanic("Lockstep with two fronts for three cores", func() { Lockstep(cores, []*Stream{front, front}) })
}

// TestLockstepLimitEndsTogether runs three cores from one front of a
// source cut short by workload.Limit, with a budget beyond the cut, and
// requires the Step loop's result from every core, each ending after
// the same count.
func TestLockstepLimitEndsTogether(t *testing.T) {
	app, _ := workload.ByName("art")
	for _, limit := range []int64{0, 1, 256, 1000, 6151} {
		mkSrcs := func() []workload.Source {
			srcs := make([]workload.Source, 3)
			for i := range srcs {
				srcs[i] = workload.Limit(workload.MustNewGenerator(app, 1), limit)
			}
			return srcs
		}
		ref := checkLockstep(t, lockstepCase{sharedOrgs()[1].mk, mkSrcs, limit + 100, DefaultConfig(), true}, nil)
		for i, res := range ref.results {
			if res.Instructions != limit {
				t.Fatalf("limit %d: core %d committed %d", limit, i, res.Instructions)
			}
		}
	}
}

// TestFrontRoundTripsWideAddresses records a private core's front, its
// PCs and addresses offset to 2^36 and beyond as cmp's Private sharing
// offsets them, and decodes it through a lane's cursor: every I-miss
// PC and every load or store address must come back as the source gave
// it. Based at the offset, as cmp records it, every address fits its
// 4-byte slot; based at 0, every one goes through the wide side list.
func TestFrontRoundTripsWideAddresses(t *testing.T) {
	app, _ := workload.ByName("mcf")
	const n = 20_000
	for _, tc := range []struct{ offset, base uint64 }{
		{1 << 36, 1 << 36}, {3 << 36, 3 << 36}, {1 << 36, 0}, {3 << 36, 0},
	} {
		offset := tc.offset
		mkSrc := func() workload.Source { return &offsetSource{workload.MustNewGenerator(app, 2), offset} }
		s := recordFrontAt(t, mkSrc(), n, DefaultConfig(), tc.base)
		wantWide := 0
		if tc.base == 0 {
			wantWide = len(s.addrs)
		}
		if len(s.addrs) == 0 || len(s.wide) != wantWide {
			t.Fatalf("offset %#x, base %#x: %d of %d addresses wide, want %d", offset, tc.base, len(s.wide), len(s.addrs), wantWide)
		}
		fe, err := newFrontEnd(DefaultConfig(), true)
		if err != nil {
			t.Fatal(err)
		}
		src, l := mkSrc(), lane{s: s}
		for j := 0; j < s.count; j++ {
			in, _ := src.Next()
			l.decode(j)
			want := byte(in.Kind)
			if in.Mispredicted {
				want |= recMispredict
			}
			access, miss := fe.fetch(in.PC)
			if access {
				want |= recFetch
			}
			if miss {
				want |= recIMiss
			}
			if l.f != want {
				t.Fatalf("offset %#x, instruction %d: flags %#x, want %#x", offset, j, l.f, want)
			}
			if miss && l.pc != in.PC {
				t.Fatalf("offset %#x, instruction %d: I-miss PC %#x, want %#x", offset, j, l.pc, in.PC)
			}
			if isMem(in.Kind) && l.addr != in.Addr {
				t.Fatalf("offset %#x, instruction %d: address %#x, want %#x", offset, j, l.addr, in.Addr)
			}
		}
		if l.cur.addrs != len(s.addrs) || l.cur.wide != len(s.wide) || l.cur.rare != len(s.rare) {
			t.Fatalf("offset %#x: decoding read %+v of %d addresses, %d wide, %d escapes", offset, l.cur, len(s.addrs), len(s.wide), len(s.rare))
		}
	}
}

// frontBytesPerInstr is the memory of a front of n instructions, its
// codes and side lists as allocated, per instruction.
func frontBytesPerInstr(t *testing.T, s *Stream, n int) float64 {
	t.Helper()
	if s.count != n {
		t.Fatalf("front holds %d instructions, want %d", s.count, n)
	}
	return float64(cap(s.codes)+cap(s.rare)+4*cap(s.addrs)+8*cap(s.wide)) / float64(n)
}

// TestSharedFrontSize bounds the memory of the front every core of a
// Shared CMP run reads: an mcf front at 200 k instructions stays under
// 2.5 bytes per instruction.
func TestSharedFrontSize(t *testing.T) {
	app, _ := workload.ByName("mcf")
	const n = 200_000
	s := recordFront(t, workload.MustNewGenerator(app, 1), n, DefaultConfig())
	if perInstr := frontBytesPerInstr(t, s, n); perInstr > 2.5 {
		t.Fatalf("front holds %.2f bytes per instruction, want at most 2.5", perInstr)
	}
}

// TestPrivateFrontSize holds a Private CMP core's front, its addresses
// at an offset of 2^36 and more, to the same bound as a shared front:
// based at its offset, no address takes the 8-byte wide list.
func TestPrivateFrontSize(t *testing.T) {
	app, _ := workload.ByName("mcf")
	const n = 200_000
	for _, offset := range []uint64{1 << 36, 3 << 36} {
		s := recordFront(t, &offsetSource{workload.MustNewGenerator(app, 2), offset}, n, DefaultConfig())
		if perInstr := frontBytesPerInstr(t, s, n); perInstr > 2.5 || len(s.wide) != 0 {
			t.Fatalf("offset %#x: front holds %.2f bytes per instruction, %d addresses wide; want at most 2.5 and none",
				offset, perInstr, len(s.wide))
		}
	}
}

package cmp

import (
	"bytes"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/workload"
)

// testInstr keeps full-system tests fast while still driving thousands
// of shared-L2 accesses per core.
const testInstr = 30_000

func testApp(t *testing.T) workload.App {
	t.Helper()
	app, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("workload roster has no mcf")
	}
	return app
}

func newNuRAPID(t *testing.T) *nurapid.Cache {
	t.Helper()
	mem := memsys.NewMemory(128)
	c, err := nurapid.New(nurapid.DefaultConfig(), cacti.Default(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runShared(t *testing.T, cores int, sharing Sharing, trace *bytes.Buffer) Result {
	t.Helper()
	l2 := newNuRAPID(t)
	if trace != nil {
		l2.SetProbe(obs.NewTraceSink(trace))
	}
	sys, err := New(l2, Config{Cores: cores, Sharing: sharing, L1EnergyNJ: cacti.Default().L1NJ})
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := sys.Sources(testApp(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(srcs, testInstr)
}

// Two cores running the identical workload must progress equally:
// Jain's index stays at ~1.0 and both cores retire the full budget.
func TestSharedWorkloadFairness(t *testing.T) {
	res := runShared(t, 2, Shared, nil)
	for i, cr := range res.Cores {
		if cr.Instructions != testInstr {
			t.Errorf("core %d retired %d instructions, want %d", i, cr.Instructions, testInstr)
		}
	}
	if res.Fairness < 0.999 {
		t.Errorf("fairness = %f for identical workloads, want ~1.0", res.Fairness)
	}
	if res.AggregateIPC <= 0 {
		t.Errorf("aggregate IPC = %f, want > 0", res.AggregateIPC)
	}
	if res.Instructions != 2*testInstr {
		t.Errorf("total instructions = %d, want %d", res.Instructions, 2*testInstr)
	}
}

// Shared streams write the same blocks, so coherence shoot-downs must
// occur; private streams never alias, so none may occur.
func TestCoherenceInvalidations(t *testing.T) {
	shared := runShared(t, 2, Shared, nil)
	if shared.Invalidations == 0 {
		t.Error("shared run recorded no L1D invalidations; writes to shared blocks must shoot down peer copies")
	}
	var l1dInvals int64
	for _, cr := range shared.Cores {
		l1dInvals += cr.L1DInvals
	}
	if l1dInvals != shared.Invalidations {
		t.Errorf("per-core L1DInvals sum %d != system Invalidations %d", l1dInvals, shared.Invalidations)
	}

	private := runShared(t, 2, Private, nil)
	if private.Invalidations != 0 {
		t.Errorf("private run recorded %d invalidations, want 0 (disjoint address spaces)", private.Invalidations)
	}
}

// Contention is real: with disjoint (Private) address spaces there is
// no constructive sharing to hide behind, so two cores fighting over
// the same L2 capacity and bank bandwidth take longer than one core
// alone, and the queue records nonzero stall cycles. (Under Shared
// streams the comparison is invalid: each core's misses prefetch the
// other's blocks into the shared L2, and the pair can finish *faster*
// than solo — see TestSharedPrefetchEffect.)
func TestContentionShowsUp(t *testing.T) {
	solo := runShared(t, 1, Private, nil)
	duo := runShared(t, 2, Private, nil)
	if duo.Cycles <= solo.Cycles {
		t.Errorf("2-core makespan %d <= 1-core %d; shared-queue contention must cost cycles", duo.Cycles, solo.Cycles)
	}
	var stalls int64
	for _, cs := range duo.PerCore {
		stalls += cs.StallCycles
	}
	if stalls == 0 {
		t.Error("2-core run recorded zero queue stall cycles; same-bank collisions must stall")
	}
	var attributed int64
	for _, s := range duo.GroupStallCycles {
		attributed += s
	}
	attributed += duo.MissStallCycles
	if attributed != stalls {
		t.Errorf("group+miss attribution %d != total stalls %d", attributed, stalls)
	}
}

// Identical Shared streams interfere constructively: whichever core is
// momentarily ahead fetches blocks the other then finds in the shared
// L2, so each core sees fewer memory-level misses than it would alone.
// This is the behavior that makes the Shared/Private split worth
// modeling, so pin it down.
func TestSharedPrefetchEffect(t *testing.T) {
	solo := runShared(t, 1, Shared, nil)
	duo := runShared(t, 2, Shared, nil)
	perCoreDuo := (duo.Cores[0].Cycles + duo.Cores[1].Cycles) / 2
	if perCoreDuo >= solo.Cycles {
		t.Errorf("shared duo per-core cycles %d >= solo %d; identical streams should prefetch for each other", perCoreDuo, solo.Cycles)
	}
}

// The whole system is deterministic: two identical runs produce deeply
// equal results and byte-identical shared-L2 event traces, and the
// trace carries non-zero core ids.
func TestSystemDeterminism(t *testing.T) {
	var t1, t2 bytes.Buffer
	r1 := runShared(t, 2, Shared, &t1)
	r2 := runShared(t, 2, Shared, &t2)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("identical runs produced different Results")
	}
	if t1.Len() == 0 {
		t.Fatal("trace sink captured no events")
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Error("identical runs produced different event traces")
	}
	if !strings.Contains(t1.String(), `"core":1`) {
		t.Error("trace never attributes an access to core 1")
	}
}

// A Result snapshot carries the headline aggregate metrics and the
// per-core nesting.
func TestResultSnapshot(t *testing.T) {
	res := runShared(t, 2, Shared, nil)
	snap := res.Snapshot()
	want := []string{
		"cycles", "instructions", "aggregate_ipc", "fairness",
		"invalidations", "miss_stall_cycles",
		"core0_ipc", "core1_ipc", "core0_queue_stall_cycles", "core1_queue_accesses",
	}
	have := make(map[string]bool, len(snap))
	for _, kv := range snap {
		have[kv.Name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("Result snapshot missing %q", name)
		}
	}
}

// Private sharing offsets each core's stream: the underlying generator
// addresses never collide across cores.
func TestOffsetSourceDisjoint(t *testing.T) {
	l2 := newNuRAPID(t)
	sys, err := New(l2, Config{Cores: 2, Sharing: Private})
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := sys.Sources(testApp(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for core, src := range srcs {
		for i := 0; i < 2000; i++ {
			in, ok := src.Next()
			if !ok {
				break
			}
			if in.Addr == 0 {
				continue
			}
			blk := in.Addr >> 7
			if prev, dup := seen[blk]; dup && prev != core {
				t.Fatalf("block %#x generated by both core %d and core %d", blk, prev, core)
			}
			seen[blk] = core
		}
	}
}

// TestRunFrontsAllocsFlatInN holds a Shared System.RunFronts to a fixed
// allocation count: with the front recorded and the systems built
// outside the count, running four cores on the one front allocates the
// same at 20 k and 200 k instructions per core, so the lockstep run
// allocates nothing per instruction. Building a system stays outside
// the count because it formats names through fmt, whose printer pool
// the race detector drops entries from at random, so its count varies
// from run to run under -race. The collector is off while it counts: a
// collection cycle makes a few allocations of the runtime's own.
func TestRunFrontsAllocsFlatInN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := Config{Cores: 4, Sharing: Shared, L1EnergyNJ: cacti.Default().L1NJ}
	allocs := func(n int64) float64 {
		srcs, err := cfg.Sources(testApp(t), 1)
		if err != nil {
			t.Fatal(err)
		}
		fronts := RecordFronts(srcs, n, nil)
		// AllocsPerRun calls its function once more than it counts.
		systems := make([]*System, 3)
		for i := range systems {
			if systems[i], err = New(newNuRAPID(t), cfg); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(len(systems)-1, func() {
			sys := systems[0]
			systems = systems[1:]
			if res := sys.RunFronts(fronts); res.Instructions != 4*n {
				t.Fatalf("retired %d of %d instructions", res.Instructions, 4*n)
			}
		})
	}
	short, long := allocs(20_000), allocs(200_000)
	if long != short {
		t.Fatalf("Shared System.RunFronts allocations grow with n: %.0f at 20k, %.0f at 200k instructions per core", short, long)
	}
}

// TestFrontsServeManyRuns records one set of fronts per sharing pattern
// and runs two systems on it in turn, as one app's organizations share
// their fronts: each run must equal a System.Run from fresh sources,
// and a front count that does not fit the sharing pattern must panic.
func TestFrontsServeManyRuns(t *testing.T) {
	for _, sharing := range []Sharing{Shared, Private} {
		cfg := Config{Cores: 3, Sharing: sharing, L1EnergyNJ: cacti.Default().L1NJ}
		srcs, err := cfg.Sources(testApp(t), 1)
		if err != nil {
			t.Fatal(err)
		}
		fronts := RecordFronts(srcs, testInstr, nil)
		if want := map[Sharing]int{Shared: 1, Private: 3}[sharing]; len(fronts) != want {
			t.Fatalf("%s: %d fronts, want %d", sharing, len(fronts), want)
		}
		for run := 0; run < 2; run++ {
			sys, err := New(newNuRAPID(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := sys.RunFronts(fronts)
			if want := runShared(t, 3, sharing, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, run %d on shared fronts:\n got  %+v\n want %+v", sharing, run, got, want)
			}
		}
		sys, err := New(newNuRAPID(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: RunFronts took %d fronts for 3 cores", sharing, len(fronts)+1)
				}
			}()
			sys.RunFronts(append(fronts, fronts[0]))
		}()
	}
}

// TestParseSharingRoundtrip checks that every Sharing prints as the
// spelling ParseSharing accepts, and that unknown spellings are errors.
func TestParseSharingRoundtrip(t *testing.T) {
	for _, s := range []Sharing{Shared, Private} {
		got, err := ParseSharing(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSharing(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := ParseSharing("Shared"); err == nil || !strings.Contains(err.Error(), "valid: shared, private") {
		t.Errorf("ParseSharing(\"Shared\") error = %v, want the valid spellings", err)
	}
	if got := Sharing(7).String(); got != "Sharing(7)" {
		t.Errorf("Sharing(7).String() = %q", got)
	}
}

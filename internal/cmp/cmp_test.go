package cmp

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/memsys/memtest"
	"nurapid/internal/nurapid"
)

func TestQueueConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  QueueConfig
	}{
		{"zero banks", QueueConfig{Banks: 0, BlockBytes: 128, Occupancy: 4, Cores: 1}},
		{"block not power of two", QueueConfig{Banks: 8, BlockBytes: 96, Occupancy: 4, Cores: 1}},
		{"block too small", QueueConfig{Banks: 8, BlockBytes: 4, Occupancy: 4, Cores: 1}},
		{"zero occupancy", QueueConfig{Banks: 8, BlockBytes: 128, Occupancy: 0, Cores: 1}},
		{"zero cores", QueueConfig{Banks: 8, BlockBytes: 128, Occupancy: 4, Cores: 0}},
	}
	for _, tc := range cases {
		if _, err := NewQueue(memtest.NewStub(10), tc.cfg); err == nil {
			t.Errorf("%s: NewQueue accepted invalid config %+v", tc.name, tc.cfg)
		}
	}
	if _, err := NewQueue(memtest.NewStub(10), DefaultQueueConfig(4)); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// Two requests from different cores hitting the same bank in the same
// cycle must serialize: the second starts after the first's occupancy.
func TestQueueSerializesSameBank(t *testing.T) {
	stub := memtest.NewStub(10)
	q, err := NewQueue(stub, QueueConfig{Banks: 8, BlockBytes: 128, Occupancy: 4, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x1000 // both requests target the same block/bank
	r0 := q.Access(memsys.Req{Now: 100, Addr: addr, Core: 0})
	r1 := q.Access(memsys.Req{Now: 100, Addr: addr, Core: 1})
	if want := int64(110); r0.DoneAt != want {
		t.Errorf("first access DoneAt = %d, want %d (no wait)", r0.DoneAt, want)
	}
	if want := int64(114); r1.DoneAt != want {
		t.Errorf("second access DoneAt = %d, want %d (waits one occupancy)", r1.DoneAt, want)
	}
	pc := q.PerCore()
	if pc[0].StallCycles != 0 || pc[1].StallCycles != 4 {
		t.Errorf("stall attribution = %d/%d, want 0/4", pc[0].StallCycles, pc[1].StallCycles)
	}
	if pc[0].Accesses != 1 || pc[1].Accesses != 1 {
		t.Errorf("access attribution = %d/%d, want 1/1", pc[0].Accesses, pc[1].Accesses)
	}
	if pc[1].LatencyCycles != 14 {
		t.Errorf("core 1 latency = %d, want 14 (4 wait + 10 access)", pc[1].LatencyCycles)
	}
}

// Requests to different banks must not interfere.
func TestQueueIndependentBanks(t *testing.T) {
	q, err := NewQueue(memtest.NewStub(10), QueueConfig{Banks: 8, BlockBytes: 128, Occupancy: 4, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	r0 := q.Access(memsys.Req{Now: 100, Addr: 0 * 128, Core: 0})
	r1 := q.Access(memsys.Req{Now: 100, Addr: 1 * 128, Core: 1})
	if r0.DoneAt != 110 || r1.DoneAt != 110 {
		t.Errorf("DoneAt = %d/%d, want 110/110 (distinct banks, no wait)", r0.DoneAt, r1.DoneAt)
	}
}

// Bank-wait cycles are attributed to the d-group that served the
// stalled access (the stub always hits in group 0).
func TestQueueGroupStallAttribution(t *testing.T) {
	q, err := NewQueue(memtest.NewStub(10), QueueConfig{Banks: 1, BlockBytes: 128, Occupancy: 4, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	q.Access(memsys.Req{Now: 0, Addr: 0, Core: 0})
	q.Access(memsys.Req{Now: 0, Addr: 128, Core: 1}) // same single bank: waits 4
	perGroup, miss := q.GroupStalls()
	if len(perGroup) != 1 || perGroup[0] != 4 {
		t.Errorf("perGroup = %v, want [4]", perGroup)
	}
	if miss != 0 {
		t.Errorf("miss stalls = %d, want 0", miss)
	}
	snap := q.Snapshot()
	found := false
	for _, kv := range snap {
		if kv.Name == "queue_dgroup_0_stall_cycles" && kv.Value == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot missing queue_dgroup_0_stall_cycles=4: %v", snap)
	}
}

// Write requests carried through the queue keep their core id on the
// wrapped organization (per-core attribution end to end).
func TestQueueForwardsCore(t *testing.T) {
	stub := memtest.NewStub(1)
	stub.Record = true
	q, err := NewQueue(stub, DefaultQueueConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	q.Access(memsys.Req{Now: 5, Addr: 0x40, Write: true, Core: 3})
	if len(stub.Reqs) != 1 {
		t.Fatalf("stub saw %d reqs, want 1", len(stub.Reqs))
	}
	got := stub.Reqs[0]
	if got.Core != 3 || !got.Write || got.Addr != 0x40 {
		t.Errorf("forwarded req = %+v, want Core 3 write to 0x40", got)
	}
}

func TestSystemConfigValidation(t *testing.T) {
	if _, err := New(memtest.NewStub(10), Config{Cores: 0}); err == nil {
		t.Error("New accepted Cores=0")
	}
	if _, err := New(memtest.NewStub(10), Config{Cores: 4, Queue: QueueConfig{Banks: 8, BlockBytes: 128, Occupancy: 4, Cores: 2}}); err == nil {
		t.Error("New accepted Queue.Cores < Cores")
	}
}

// A hit in any d-group gets its bank stall, however many d-groups the
// organization has: a 128-MB NuRAPID with 8-KB blocks has 128 of them.
// The queue's per-group stalls must match a replica of its one bank,
// group by group, and reach past group 63.
func TestQueueGroupStallsCoverEveryGroup(t *testing.T) {
	cfg := nurapid.DefaultConfig()
	cfg.CapacityBytes, cfg.BlockBytes, cfg.NumDGroups = 128<<20, 8192, 128
	l2, err := nurapid.New(cfg, cacti.Default(), memsys.NewMemory(cfg.BlockBytes))
	if err != nil {
		t.Fatal(err)
	}
	const occupancy = 4
	q, err := NewQueue(l2, QueueConfig{Banks: 1, BlockBytes: 128, Occupancy: occupancy, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two passes over 12 288 blocks, two requests a cycle: the second
	// pass hits blocks demoted far out by the first.
	var bank memsys.Port
	want := make([]int64, cfg.NumDGroups)
	var wantMiss int64
	const blocks = 12_288
	for i := 0; i < 2*blocks; i++ {
		now := int64(i / 2)
		stall := bank.Acquire(now, occupancy) - now
		r := q.Access(memsys.Req{Now: now, Addr: uint64(i%blocks) * uint64(cfg.BlockBytes), Core: i % 2})
		if r.Hit {
			want[r.Group] += stall
		} else {
			wantMiss += stall
		}
	}
	perGroup, miss := q.GroupStalls()
	if miss != wantMiss {
		t.Errorf("miss stalls = %d, want %d", miss, wantMiss)
	}
	if len(perGroup) <= 64 {
		t.Fatalf("stalls attributed to %d groups; the run stalls hits beyond group 63", len(perGroup))
	}
	for g := range want {
		if g < len(perGroup) && perGroup[g] != want[g] || g >= len(perGroup) && want[g] != 0 {
			t.Fatalf("group %d: %v stall cycles, want %d", g, perGroup[min(g, len(perGroup)-1):], want[g])
		}
	}
}

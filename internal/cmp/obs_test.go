package cmp

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
)

// recorderProbe captures the raw event stream for order checks.
type recorderProbe struct {
	events []obs.Event
}

func (r *recorderProbe) Emit(e obs.Event) { r.events = append(r.events, e) }

// countingProbe is the cheapest non-nil probe for allocation checks.
type countingProbe struct {
	n int64
}

func (p *countingProbe) Emit(obs.Event) { p.n++ }

// TestCMPEventOrderCanonical runs a 2-core shared system with a
// recording probe and checks the stream against the extended order
// (obs.CheckOrder: Enqueue → Issue → Access → outcome → movement tail
// → Inval*), then the queue-side data each window carries: the Issue
// names the Enqueue's bank and core and carries exactly the queue-wait
// implied by the two timestamps, every Access directly follows an
// Issue and starts at its grant cycle on the requesting core, and a
// shoot-down never hits the writer.
func TestCMPEventOrderCanonical(t *testing.T) {
	l2 := newNuRAPID(t)
	sys, err := New(l2, Config{Cores: 2, Sharing: Shared})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorderProbe{}
	sys.SetProbe(rec)
	srcs, err := sys.Sources(testApp(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(srcs, 5_000)
	if len(rec.events) == 0 {
		t.Fatal("probe captured no events")
	}
	if err := obs.CheckOrder(rec.events); err != nil {
		t.Fatal(err)
	}

	var enq, issue obs.Event
	windows, invals, waits := 0, 0, 0
	for i, e := range rec.events {
		switch e.Kind {
		case obs.KindEnqueue:
			enq = e
			windows++
		case obs.KindIssue:
			if e.Group != enq.Group || e.Core != enq.Core {
				t.Fatalf("event %d: issue bank/core %d/%d != enqueue %d/%d",
					i, e.Group, e.Core, enq.Group, enq.Core)
			}
			if e.Lat != e.Now-enq.Now {
				t.Fatalf("event %d: issue wait %d != grant %d - arrival %d",
					i, e.Lat, e.Now, enq.Now)
			}
			if e.Lat > 0 {
				waits++
			}
			issue = e
		case obs.KindAccess:
			if i == 0 || rec.events[i-1].Kind != obs.KindIssue {
				t.Fatalf("event %d: access not directly after an issue: every CMP access is queued", i)
			}
			if e.Core != enq.Core || e.Now != issue.Now {
				t.Fatalf("event %d: access core %d at %d, want core %d at grant %d",
					i, e.Core, e.Now, enq.Core, issue.Now)
			}
		case obs.KindInval:
			if e.Core == enq.Core {
				t.Fatalf("event %d: inval shot down the writer's own core %d", i, e.Core)
			}
			invals++
		}
	}
	if windows < 100 {
		t.Fatalf("only %d access windows in the stream", windows)
	}
	if invals == 0 {
		t.Fatal("shared write stream produced no inval events")
	}
	if waits == 0 {
		t.Fatal("no access ever waited in the queue; contention events untested")
	}
}

// TestQueuedEmissionZeroAlloc pins the hot queued path at zero
// allocations per access with probes attached: Enqueue/Issue emission,
// the wrapped organization's events, the shoot-down scan, and the
// time-series registry's steady state (one warm window, grown tables).
func TestQueuedEmissionZeroAlloc(t *testing.T) {
	l2 := newNuRAPID(t)
	sys, err := New(l2, Config{Cores: 2, Sharing: Shared})
	if err != nil {
		t.Fatal(err)
	}
	count := &countingProbe{}
	// A huge window keeps the whole test in one epoch: rotation-driven
	// slice growth is a warm-up cost, not a steady-state one.
	ts := obs.NewTimeSeries("ts", 1<<40)
	ts.SetProfile(sys.Queue().LatencyProfile())
	sys.SetProbe(obs.Multi(count, ts))

	now := int64(0)
	access := func(i int, write bool) {
		req := memsys.Req{
			Now:   now,
			Addr:  0x4000 + uint64(i%256)*128,
			Write: write,
		}
		r := sys.fronts[i%2].Access(req)
		now = r.DoneAt + 1
	}
	for i := 0; i < 512; i++ {
		access(i, i%4 == 0) // warm caches, histograms, and core/bank tables
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		access(i, i%4 == 0)
		i++
	})
	if allocs != 0 {
		t.Fatalf("queued probed access allocates %.2f times, want 0", allocs)
	}
	if count.n == 0 {
		t.Fatal("counting probe saw no events")
	}
}

// TestQueueNilProbeZeroAlloc guards the disabled-probe fast path on the
// same queued + shoot-down route.
func TestQueueNilProbeZeroAlloc(t *testing.T) {
	l2 := newNuRAPID(t)
	sys, err := New(l2, Config{Cores: 2, Sharing: Shared})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	access := func(i int) {
		req := memsys.Req{Now: now, Addr: 0x4000 + uint64(i%256)*128, Write: i%4 == 0}
		r := sys.fronts[i%2].Access(req)
		now = r.DoneAt + 1
	}
	for i := 0; i < 512; i++ {
		access(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		access(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("unprobed queued access allocates %.2f times, want 0", allocs)
	}
}

// TestWaterfallSumsToReportedLatency is the attribution acceptance
// test: for every access through a queued NuRAPID, the five waterfall
// components must sum exactly to the reported completion time minus the
// arrival cycle — hits and misses, contended and not, across demotion
// ripples.
func TestWaterfallSumsToReportedLatency(t *testing.T) {
	// The paper's 8 MB cache never demotes under a 4 000-access working
	// set, so no promotion-ripple debt would ever build. A 4 MB cache
	// with RestrictFrames 8 pins each block to an 8-frame partition per
	// d-group; 32 blocks sharing one partition then churn through
	// demotion chains continuously.
	cfg := nurapid.DefaultConfig()
	cfg.CapacityBytes = 4 << 20
	cfg.RestrictFrames = 8
	l2, err := nurapid.New(cfg, cacti.Default(), memsys.NewMemory(128))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(l2, QueueConfig{Banks: 4, BlockBytes: 128, Occupancy: 4, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTimeSeries("ts", 0)
	ts.SetProfile(q.LatencyProfile())
	q.SetProbe(ts)

	prev, prevN := ts.WaterfallTotals()
	now := int64(0)
	prevAddr := uint64(0)
	// A mix of reuse (hits, promotions) and fresh blocks (misses,
	// demotion chains), arriving in bursts of three at one cycle: the
	// second collides with the first's queue bank (real queue wait), the
	// third lands on another bank and finds the organization's port busy
	// (real bank-busy time).
	for i := 0; i < 4_000; i++ {
		addr := 0x1000 + uint64((i*7)%512)*128
		switch {
		case i%3 == 1:
			// Same bank as the predecessor: the hash is
			// addr >> blockShift mod banks, so +banks*blocks*k keeps it.
			addr = prevAddr + 16*4*128
		case i%15 == 0:
			// Hot partition: blocks 1024 sets apart share a frame
			// partition (set % nParts), so cycling 32 of them through
			// 8 frames per d-group forces demotion chains whose port
			// debt the rest of the burst then rides (ripple).
			addr = 0x8000_0000 + uint64((i/15)%32)*1024*128
		}
		prevAddr = addr
		req := memsys.Req{Now: now, Addr: addr, Write: i%5 == 0, Core: i % 2}
		r := q.Access(req)
		ts.Flush()
		comps, n := ts.WaterfallTotals()
		if n != prevN+1 {
			t.Fatalf("access %d: not attributed (profile mode lost)", i)
		}
		var sum int64
		for k, v := range comps {
			sum += v - prev[k]
		}
		if want := r.DoneAt - req.Now; sum != want {
			t.Fatalf("access %d (addr %#x write %v): components sum %d != DoneAt-Now %d",
				i, addr, req.Write, sum, want)
		}
		prev, prevN = comps, n
		if i%3 == 2 { // the next burst starts after this one drains
			now = r.DoneAt + int64(i%9)
		}
	}
	comps, n := ts.WaterfallTotals()
	if n != 4_000 {
		t.Fatalf("attributed %d accesses, want 4000", n)
	}
	// Pinned totals: every component accumulates, and a change to how
	// the port, the stamps or the profile charge time shows here.
	if want := [obs.NumWaterfall]int64{5868, 11144, 32000, 148948, 2152}; comps != want {
		t.Fatalf("component totals %v, want %v (%v)", comps, want, obs.WaterfallNames)
	}
}

package nurapid_test

import (
	"bytes"
	"fmt"
	"log"

	"nurapid"
	"nurapid/internal/workload"
)

// Build a NuRAPID cache, issue a handful of accesses, and watch distance
// placement at work: new blocks land in the fastest d-group and hits
// report which d-group (and therefore which latency) served them.
func ExampleNew() {
	cache, mem, err := nurapid.New(nurapid.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("NuRAPID quickstart: 8 MB, 8-way, 4 d-groups, next-fastest promotion")
	fmt.Printf("d-group latencies (cycles): %v\n\n", cache.GroupLatencies())

	addr := uint64(0x1000_0000)
	now := int64(0)

	// Cold miss: fetched from memory and placed in the fastest d-group.
	r := cache.Access(nurapid.Req{Now: now, Addr: addr, Write: false})
	fmt.Printf("cycle %5d: read %#x -> hit=%-5v done at cycle %d (memory latency %d)\n",
		now, addr, r.Hit, r.DoneAt, mem.Latency())
	fmt.Printf("             block now resides in d-group %d\n\n", cache.GroupOf(addr))

	// Warm hit: served at the fastest d-group's latency.
	now = r.DoneAt
	r = cache.Access(nurapid.Req{Now: now, Addr: addr, Write: false})
	fmt.Printf("cycle %5d: read %#x -> hit=%-5v served by d-group %d in %d cycles\n\n",
		now, addr, r.Hit, r.Group, r.DoneAt-now)

	// A dirty write, then enough conflicting blocks to evict it: the
	// writeback goes to memory, and distance replacement demotes blocks
	// rather than evicting them.
	cache.Access(nurapid.Req{Now: now, Addr: addr, Write: true})
	stride := uint64(8 << 20) // same set in the 8-MB, 8-way tag array
	for i := 1; i <= 8; i++ {
		now += 1000
		cache.Access(nurapid.Req{Now: now, Addr: addr + uint64(i)*stride, Write: false})
	}
	fmt.Printf("after 8 conflicting fills: block resident=%v, memory writebacks=%d\n",
		cache.Contains(addr), mem.Writes)
	fmt.Printf("\naccess distribution so far: %v\n", cache.Distribution())
	fmt.Printf("d-group data-array accesses: %v\n", cache.GroupAccesses())
	fmt.Printf("dynamic energy consumed: %.2f nJ\n", cache.EnergyNJ())

	// Output:
	// NuRAPID quickstart: 8 MB, 8-way, 4 d-groups, next-fastest promotion
	// d-group latencies (cycles): [14 23 25 34]
	//
	// cycle     0: read 0x10000000 -> hit=false done at cycle 202 (memory latency 194)
	//              block now resides in d-group 0
	//
	// cycle   202: read 0x10000000 -> hit=true  served by d-group 0 in 14 cycles
	//
	// after 8 conflicting fills: block resident=false, memory writebacks=1
	//
	// access distribution so far: dgroup-0: 18.2%  dgroup-1: 0.0%  dgroup-2: 0.0%  dgroup-3: 0.0%  miss: 81.8%
	// d-group data-array accesses: [12 0 0 0]
	// dynamic energy consumed: 5.59 nJ
}

// The paper's motivating problem (Sec. 1, problem 2 and Figure 4): when
// many ways of one cache set are hot, set-associative placement can keep
// only a couple of them in the fastest distance-group, while
// distance-associative placement keeps them all there.
//
// The workload hammers all 8 ways of a single set, the access pattern a
// large-matrix column walk produces: 20 rounds over the 8 blocks, so 160
// accesses of which the first round's 8 are cold misses.
func Example_hotSet() {
	fmt.Println("Hot-set demonstration: 8 blocks mapping to ONE set of the 8-way tag array")
	fmt.Println()

	// Blocks one set-stride (1 MB here) apart share a set.
	const stride = 1 << 20
	base := uint64(0x1000_0000)

	for _, mode := range []nurapid.Placement{nurapid.SetAssociative, nurapid.DistanceAssociative} {
		cfg := nurapid.DefaultConfig()
		cfg.Placement = mode
		if mode == nurapid.SetAssociative {
			// The paper's set-associative comparison cache uses LRU for
			// distance replacement within the set's frames.
			cfg.Distance = nurapid.LRUDistance
		}
		c, _, err := nurapid.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		now := int64(0)

		// Fill the hot set, then keep re-accessing it.
		for round := 0; round < 20; round++ {
			for i := 0; i < 8; i++ {
				r := c.Access(nurapid.Req{Now: now, Addr: base + uint64(i)*stride, Write: false})
				now = r.DoneAt + 10
			}
		}

		fmt.Printf("%s placement:\n", mode)
		perGroup := map[int]int{}
		for i := 0; i < 8; i++ {
			perGroup[c.GroupOf(base+uint64(i)*stride)]++
		}
		for g := 0; g < 4; g++ {
			fmt.Printf("  d-group %d holds %d of the 8 hot blocks\n", g, perGroup[g])
		}
		fmt.Printf("  distribution of all 160 accesses, 8 cold misses included: %v\n", c.Distribution())
		fmt.Printf("  total cycles to run the pattern: %d\n\n", now)
	}

	fmt.Println("Distance associativity lets the whole hot set live at the fastest")
	fmt.Println("latency; set-associative placement strands 6 of 8 blocks in slower")
	fmt.Println("d-groups — exactly the restriction NuRAPID removes.")

	// Output:
	// Hot-set demonstration: 8 blocks mapping to ONE set of the 8-way tag array
	//
	// set-associative placement:
	//   d-group 0 holds 2 of the 8 hot blocks
	//   d-group 1 holds 2 of the 8 hot blocks
	//   d-group 2 holds 2 of the 8 hot blocks
	//   d-group 3 holds 2 of the 8 hot blocks
	//   distribution of all 160 accesses, 8 cold misses included: dgroup-0: 0.0%  dgroup-1: 47.5%  dgroup-2: 0.0%  dgroup-3: 47.5%  miss: 5.0%
	//   total cycles to run the pattern: 7548
	//
	// distance-associative placement:
	//   d-group 0 holds 8 of the 8 hot blocks
	//   d-group 1 holds 0 of the 8 hot blocks
	//   d-group 2 holds 0 of the 8 hot blocks
	//   d-group 3 holds 0 of the 8 hot blocks
	//   distribution of all 160 accesses, 8 cold misses included: dgroup-0: 95.0%  dgroup-1: 0.0%  dgroup-2: 0.0%  dgroup-3: 0.0%  miss: 5.0%
	//   total cycles to run the pattern: 5344
	//
	// Distance associativity lets the whole hot set live at the fastest
	// latency; set-associative placement strands 6 of 8 blocks in slower
	// d-groups — exactly the restriction NuRAPID removes.
}

// Compare NuRAPID's three promotion policies (paper Sec. 2.4.1 and
// Figures 5-6) on a phased workload: the program works on region A,
// shifts to regions B and C (demoting A's blocks past d-group 1), then
// returns to A. The policies differ in how quickly A's blocks regain
// the fastest d-group.
func ExamplePromotion() {
	const (
		regionBlocks = 12288 // 1.5 MB per region: A + B + C exceed d-groups 0 and 1
		blockBytes   = 128
	)
	fmt.Println("Promotion-policy comparison: region A hot, then B and C, then A again.")
	fmt.Println("Average service latency of region A per re-visit round:")
	fmt.Println()
	for _, p := range []nurapid.Promotion{nurapid.DemotionOnly, nurapid.NextFastest, nurapid.Fastest} {
		cfg := nurapid.DefaultConfig()
		cfg.Promotion = p
		c, _, err := nurapid.New(cfg)
		if err != nil {
			log.Fatal(err)
		}

		regionA := uint64(0x1000_0000)
		regionB := regionA + regionBlocks*blockBytes
		regionC := regionB + regionBlocks*blockBytes
		now := int64(0)
		touch := func(base uint64, rounds int) {
			for r := 0; r < rounds; r++ {
				for b := 0; b < regionBlocks; b++ {
					res := c.Access(nurapid.Req{Now: now, Addr: base + uint64(b)*blockBytes, Write: false})
					now = res.DoneAt + 3
				}
			}
		}

		touch(regionA, 2) // phase 1: A hot
		touch(regionB, 2) // phase 2: B, then C hot; A demoted past d-group 1
		touch(regionC, 2)

		// Phase 3: A hot again. Measure its service latency per round.
		fmt.Printf("%-14s", p)
		for round := 0; round < 3; round++ {
			var served int64
			for b := 0; b < regionBlocks; b++ {
				res := c.Access(nurapid.Req{Now: now, Addr: regionA + uint64(b)*blockBytes, Write: false})
				served += res.DoneAt - now
				now = res.DoneAt + 3
			}
			fmt.Printf("  round %d: %5.1f cyc/hit", round+1, float64(served)/regionBlocks)
		}
		ctrs := c.Counters()
		fmt.Printf("  (promotions %d, demotions %d)\n",
			ctrs.Get("promotions"), ctrs.Get("demotions"))
	}
	fmt.Println()
	fmt.Println("demotion-only leaves A stuck at the demoted latency; the promoting")
	fmt.Println("policies win it back round by round. fastest moves a hit block")
	fmt.Println("straight to d-group 0 rather than one d-group closer, so from the")
	fmt.Println("second round it serves A sooner than next-fastest.")

	// Output:
	// Promotion-policy comparison: region A hot, then B and C, then A again.
	// Average service latency of region A per re-visit round:
	//
	// demotion-only   round 1:  20.7 cyc/hit  round 2:  20.7 cyc/hit  round 3:  20.7 cyc/hit  (promotions 0, demotions 24576)
	// next-fastest    round 1:  22.3 cyc/hit  round 2:  18.6 cyc/hit  round 3:  16.5 cyc/hit  (promotions 29791, demotions 54367)
	// fastest         round 1:  22.5 cyc/hit  round 2:  17.5 cyc/hit  round 3:  15.7 cyc/hit  (promotions 27686, demotions 56251)
	//
	// demotion-only leaves A stuck at the demoted latency; the promoting
	// policies win it back round by round. fastest moves a hit block
	// straight to d-group 0 rather than one d-group closer, so from the
	// second round it serves A sooner than next-fastest.
}

// Record a synthetic workload trace once, then replay the identical
// instruction stream through all three lower-level cache organizations:
// the methodology of a trace-driven architecture study.
func ExampleNewCPU() {
	const instructions = 300_000
	app, ok := nurapid.AppByName("equake")
	if !ok {
		log.Fatal("equake model missing")
	}

	// Record the trace into memory (cmd/tracegen writes the same format
	// to disk).
	var buf bytes.Buffer
	gen, err := nurapid.NewGenerator(app, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := workload.Capture(&buf, app.Name, gen, instructions); err != nil {
		log.Fatal(err)
	}
	traceBytes := buf.Bytes()
	fmt.Printf("recorded %d instructions of %s (%d KB trace)\n\n",
		instructions, app.Name, len(traceBytes)/1024)

	fmt.Printf("%-22s %10s %8s %12s %14s\n", "organization", "cycles", "IPC", "L2 energy nJ", "mem accesses")
	for _, setup := range []struct {
		name  string
		build func() (nurapid.LowerLevel, *nurapid.Memory, error)
	}{
		{"base L2/L3", func() (nurapid.LowerLevel, *nurapid.Memory, error) {
			h, m := nurapid.NewBaseHierarchy()
			return h, m, nil
		}},
		{"D-NUCA ss-perf", func() (nurapid.LowerLevel, *nurapid.Memory, error) {
			return nurapid.NewDNUCA(nurapid.DefaultDNUCAConfig())
		}},
		{"NuRAPID 4 d-groups", func() (nurapid.LowerLevel, *nurapid.Memory, error) {
			return nurapid.New(nurapid.DefaultConfig())
		}},
	} {
		l2, mem, err := setup.build()
		if err != nil {
			log.Fatal(err)
		}
		core, err := nurapid.NewCPU(nurapid.DefaultCPUConfig(), l2)
		if err != nil {
			log.Fatal(err)
		}
		reader, err := workload.NewTraceReader(bytes.NewReader(traceBytes))
		if err != nil {
			log.Fatal(err)
		}
		res := core.Run(reader, instructions)
		if err := reader.Err(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10d %8.3f %12.0f %14d\n",
			setup.name, res.Cycles, res.IPC, l2.EnergyNJ(), mem.Accesses)
	}

	fmt.Println("\nevery organization saw the byte-identical access stream; the")
	fmt.Println("differences above are purely architectural.")

	// Output:
	// recorded 300000 instructions of equake (3642 KB trace)
	//
	// organization               cycles      IPC L2 energy nJ   mem accesses
	// base L2/L3                 637312    0.471        26562           6189
	// D-NUCA ss-perf             619263    0.484       343986           6352
	// NuRAPID 4 d-groups         614981    0.488         7477           6189
	//
	// every organization saw the byte-identical access stream; the
	// differences above are purely architectural.
}

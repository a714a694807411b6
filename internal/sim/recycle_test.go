package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// recycledOrgs are the organizations whose storage the process-wide
// free lists recycle: the base hierarchy, the ideal bound, D-NUCA, and
// NuRAPID at its default (Figure 6's next-fastest) and Figure 6's two
// other promotion policies, with the predictor and memoization, with
// restricted pointers and with set-associative placement (whose frame
// store has a home per set).
func recycledOrgs() []Organization {
	nu := func(edit func(*nurapid.Config)) Organization {
		cfg := nurapid.DefaultConfig()
		edit(&cfg)
		return NuRAPID(cfg)
	}
	return []Organization{
		Base(), Ideal(), DNUCA(nuca.DefaultConfig()), NuRAPID(nurapid.DefaultConfig()),
		nu(func(c *nurapid.Config) { c.Promotion = nurapid.DemotionOnly }),
		nu(func(c *nurapid.Config) { c.Promotion = nurapid.Fastest }),
		nu(func(c *nurapid.Config) {
			c.Promotion, c.Distance, c.Memoize = nurapid.PredictiveBypass, nurapid.DeadOnArrival, true
		}),
		nu(func(c *nurapid.Config) { c.RestrictFrames = 256 }),
		nu(func(c *nurapid.Config) { c.Placement = nurapid.SetAssociative }),
	}
}

// harvestOrg reads everything a run reports of l2 and its memory: the
// distribution, counters, energies and, for NuRAPID, the per-d-group
// access and occupancy counts.
func harvestOrg(l2 memsys.LowerLevel, mem *memsys.Memory) []stats.KV {
	d := l2.Distribution()
	out := []stats.KV{
		{Name: "l2_energy_nj", Value: l2.EnergyNJ()},
		{Name: "mem_energy_nj", Value: mem.EnergyNJ()},
		{Name: "mem_accesses", Value: float64(mem.Accesses)},
		{Name: "mem_writes", Value: float64(mem.Writes)},
		{Name: "misses", Value: float64(d.MissCount())},
	}
	for i := 0; i < d.NumCategories(); i++ {
		out = append(out, stats.KV{Name: fmt.Sprintf("hits_%d", i), Value: float64(d.HitCount(i))})
	}
	for _, name := range l2.Counters().Names() {
		out = append(out, stats.KV{Name: "ctr_" + name, Value: float64(l2.Counters().Get(name))})
	}
	if nc, ok := l2.(*nurapid.Cache); ok {
		for g, n := range nc.GroupAccesses() {
			out = append(out, stats.KV{Name: fmt.Sprintf("group_%d_accesses", g), Value: float64(n)})
		}
		for g, n := range nc.GroupOccupancy() {
			out = append(out, stats.KV{Name: fmt.Sprintf("group_%d_frames", g), Value: float64(n)})
		}
	}
	return out
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecycledStorageMatchesFresh drives one seeded request stream
// through each recycled organization, releases it, rebuilds it on the
// storage it handed back, and drives the same stream again: every
// access result, counter, distribution, energy and d-group count must
// match, the rebuild must take its arrays from the free lists rather
// than allocate them, and an access after Release must panic.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	model := cacti.Default()
	app, _ := workload.ByName("mcf")
	reqs := ExtractTrace(app, 7, 40_000)
	for _, org := range recycledOrgs() {
		t.Run(org.Key, func(t *testing.T) {
			drive := func(l2 memsys.LowerLevel, mem *memsys.Memory) ([]memsys.AccessResult, []stats.KV) {
				out := make([]memsys.AccessResult, len(reqs))
				end := memsys.AccessMany(l2, 0, reqs, out)
				return out, append(harvestOrg(l2, mem), stats.KV{Name: "end", Value: float64(end)})
			}
			mem := memsys.NewMemory(org.blockBytes())
			l2 := org.Factory(model, mem)
			freshOut, fresh := drive(l2, mem)
			release(l2)
			func() {
				defer func() {
					if p := recover(); p == nil {
						t.Fatal("an access after Release did not panic")
					}
				}()
				l2.Access(memsys.Req{Addr: reqs[0].Addr})
			}()

			mem = memsys.NewMemory(org.blockBytes())
			if n := bytesAllocated(func() { l2 = org.Factory(model, mem) }); n > 256<<10 {
				t.Fatalf("rebuilding after Release allocated %d KB; want its arrays from the free lists", n>>10)
			}
			gotOut, got := drive(l2, mem)
			release(l2)
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("recycled storage harvested\n%v\nwant the fresh organization's\n%v", got, fresh)
			}
			for i := range gotOut {
				if gotOut[i] != freshOut[i] {
					t.Fatalf("request %d: recycled storage served %+v, fresh %+v", i, gotOut[i], freshOut[i])
				}
			}
		})
	}
}

// TestRecycledCMPMatchesFresh is the same check for a 4-core CMP
// system, whose cores' L1Ds are recycled with the shared organization.
func TestRecycledCMPMatchesFresh(t *testing.T) {
	model := cacti.Default()
	app, _ := workload.ByName("art")
	ccfg := cmp.Config{Cores: 4, Sharing: cmp.Shared, L1EnergyNJ: model.L1NJ}
	srcs, err := ccfg.Sources(app, 3)
	if err != nil {
		t.Fatal(err)
	}
	fronts := cmp.RecordFronts(srcs, 30_000, nil)
	for _, org := range []Organization{Base(), DNUCA(nuca.DefaultConfig()), NuRAPID(nurapid.DefaultConfig())} {
		t.Run(org.Key, func(t *testing.T) {
			run := func() []stats.KV {
				mem := memsys.NewMemory(org.blockBytes())
				l2 := org.Factory(model, mem)
				sys, err := cmp.New(l2, ccfg)
				if err != nil {
					t.Fatal(err)
				}
				res := sys.RunFronts(fronts)
				out := append(res.Snapshot(), sys.Queue().Snapshot()...)
				out = append(out, harvestOrg(l2, mem)...)
				sys.Release()
				return out
			}
			fresh := run()
			if got := run(); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("recycled storage harvested\n%v\nwant the fresh system's\n%v", got, fresh)
			}
		})
	}
}

// TestRecycledStorageConcurrent runs the recycled organizations,
// single-core and on 4 CMP cores, on a 4-worker Runner with GOMAXPROCS
// raised to 8, so jobs release and rebuild storage concurrently (under
// -race, this checks the free lists' locking), and compares every
// result with a serial Runner's.
func TestRecycledStorageConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	orgs := recycledOrgs()
	results := func(workers int) string {
		r := smallRunner(t, WithInstructions(30_000), WithWorkers(workers), WithCores(4))
		r.prefetch(runSet{apps: r.apps, orgs: orgs})
		r.prefetch(runSet{apps: r.apps, orgs: orgs[:4], cmp: true})
		var b strings.Builder
		for _, app := range r.apps {
			for _, org := range orgs {
				res := r.Run(app, org)
				fmt.Fprintf(&b, "%s/%s %+v %v %v %v\n", app.Name, org.Key, res.CPU, res.Snapshot(), res.L2Ctrs.String(), res.L2GroupAccesses)
				fmt.Fprintf(&b, "  dist %v\n", res.L2Dist.Fracs())
			}
			for _, org := range orgs[:4] {
				fmt.Fprintf(&b, "%s/cmp-%s %v\n", app.Name, org.Key, r.RunCMP(app, org).Snapshot())
			}
		}
		return b.String()
	}
	serial, parallel := results(1), results(4)
	if serial != parallel {
		t.Fatalf("4 workers recycling storage diverged from serial near %q", firstDiff(serial, parallel))
	}
}

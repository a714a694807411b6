package sim

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// probedCMP runs a 2-core shared CMP of mcf on NuRAPID with the probe
// chain runCMP attaches (the factory's probes, then the time series)
// and returns a harvest that does what runCMP does after the run:
// finishProbe, then the result's Snapshot. The harvest can repeat: no
// member of the chain holds resources. extra, when set, is a factory
// probe added after a Collector.
func probedCMP(t *testing.T, extra func() obs.Probe) func() []stats.KV {
	t.Helper()
	model := cacti.Default()
	app, _ := workload.ByName("mcf")
	org := NuRAPID(nurapid.DefaultConfig())
	r := NewRunner(WithModel(model), WithSeed(1), WithCores(2), WithProbe(func(app, org string) obs.Probe {
		if extra == nil {
			return obs.NewCollector()
		}
		return obs.Multi(obs.NewCollector(), extra())
	}))
	ccfg := cmp.Config{Cores: 2, Sharing: cmp.Shared, L1EnergyNJ: model.L1NJ}
	srcs, err := ccfg.Sources(app, 1)
	if err != nil {
		t.Fatal(err)
	}
	fronts := cmp.RecordFronts(srcs, 20_000, nil)
	mem := memsys.NewMemory(org.blockBytes())
	sys, err := cmp.New(org.Factory(model, mem), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := r.instrument(app.Name, r.cmpLabel(org), sys, cmpTimeSeries(sys))
	res := &CMPRunResult{App: app.Name, Org: org.Key, Cores: 2, Res: sys.RunFronts(fronts), QueueMetrics: sys.Queue().Snapshot()}
	if err := r.ProbeErr(); err != nil {
		t.Fatal(err)
	}
	return func() []stats.KV {
		res.ObsMetrics = r.finishProbe(probe)
		return res.Snapshot()
	}
}

// TestHarvestBuildsNamesOnce pins the harvest's name interning: once a
// probed CMP run's metric names have been built, harvesting it again
// returns the same list with every name the same string (the same
// bytes, not an equal copy), and allocates only its snapshot slices,
// a few for a list of hundreds of metrics.
func TestHarvestBuildsNamesOnce(t *testing.T) {
	harvest := probedCMP(t, nil)
	first := harvest()
	second := harvest()
	if !slices.Equal(first, second) {
		t.Fatalf("a repeated harvest differs:\n got %v\nwant %v", second, first)
	}
	for i := range first {
		if unsafe.StringData(first[i].Name) != unsafe.StringData(second[i].Name) {
			t.Fatalf("metric %d (%s) was built again", i, first[i].Name)
		}
	}
	// One slice per snapshot: the Collector's counter names and
	// counters, its list, the time series', the composed probe's, the
	// cmp.Result's per-core index, two per-core lists and its own, and
	// the run's. Building the names would add hundreds.
	const maxAllocs = 10
	if allocs := testing.AllocsPerRun(10, func() { harvest() }); allocs > maxAllocs {
		t.Fatalf("a harvest of %d metrics made %v allocations, want at most %d", len(first), allocs, maxAllocs)
	}
}

// TestHarvestConcurrent has 8 goroutines harvest their own probed CMP
// runs at once. Each run carries a Sampler whose name no other test
// uses, so the first sight of its metric names, and their interning,
// happens concurrently; under -race this checks the intern's locking.
// Every harvest must return the same list.
func TestHarvestConcurrent(t *testing.T) {
	const n = 8
	harvests := make([]func() []stats.KV, n)
	for i := range harvests {
		harvests[i] = probedCMP(t, func() obs.Probe { return obs.NewSampler("harvest_concurrent", 0) })
	}
	got := make([][]stats.KV, n)
	var wg sync.WaitGroup
	for i := range harvests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = harvests[i]()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !slices.Equal(got[i], got[0]) {
			t.Fatalf("harvest %d differs from harvest 0:\n got %v\nwant %v", i, got[i], got[0])
		}
	}
	if !slices.ContainsFunc(got[0], func(kv stats.KV) bool { return kv.Name == "obs_harvest_concurrent_samples" }) {
		t.Fatal("the harvest holds no Sampler metric")
	}
}

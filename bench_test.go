// Benchmarks regenerating every table and figure of the paper's
// evaluation at a reduced scale (a 5-application subset, a few hundred
// thousand instructions per run) so `go test -bench=.` completes in
// minutes. Headline metrics are attached to each benchmark via
// b.ReportMetric; the full-scale numbers come from cmd/experiments and
// are recorded in EXPERIMENTS.md.
package nurapid

import (
	"runtime"
	"testing"

	"nurapid/internal/memsys"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// benchInstructions is the per-application run length for benches.
const benchInstructions = 400_000

// benchApps is the subset used by benches: three high-load applications
// spanning small and large working sets, plus one low-load control.
var benchApps = []string{"applu", "art", "mcf", "galgel", "gzip"}

func benchRunner(b *testing.B) *sim.Runner {
	b.Helper()
	return benchRunnerWorkers(b, 1)
}

// benchRunnerWorkers builds the bench roster's runner on a pool of
// workers; extra options apply after the defaults.
func benchRunnerWorkers(tb testing.TB, workers int, extra ...sim.Option) *sim.Runner {
	tb.Helper()
	opts := []sim.Option{
		sim.WithInstructions(benchInstructions),
		sim.WithSeed(1),
		sim.WithApps(benchAppList(tb)...),
		sim.WithWorkers(workers),
	}
	return sim.NewRunner(append(opts, extra...)...)
}

// benchAppList resolves benchApps to their workload models.
func benchAppList(tb testing.TB) []workload.App {
	tb.Helper()
	var apps []workload.App
	for _, name := range benchApps {
		a, ok := workload.ByName(name)
		if !ok {
			tb.Fatalf("app %s missing", name)
		}
		apps = append(apps, a)
	}
	return apps
}

func report(b *testing.B, e *sim.Experiment, keys ...string) {
	b.Helper()
	for _, k := range keys {
		v, ok := e.Metrics[k]
		if !ok {
			b.Fatalf("experiment %s missing metric %s", e.ID, k)
		}
		b.ReportMetric(v, k)
	}
}

// BenchmarkTable2Energies regenerates the cache-energy table (paper
// Table 2) from the calibrated cacti model.
func BenchmarkTable2Energies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Table2()
		report(b, e, "closest_2mb_nj", "farthest_2mb_nj", "closest_nuca_nj")
	}
}

// BenchmarkTable3AppLoads measures the base-case IPC and L2
// accesses-per-kilo-instruction of the workload models (paper Table 3).
func BenchmarkTable3AppLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Table3()
		report(b, e, "apki_applu", "apki_mcf", "ipc_applu")
	}
}

// BenchmarkTable4Latencies regenerates the d-group latency table (paper
// Table 4).
func BenchmarkTable4Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Table4()
		report(b, e, "fastest_2g", "fastest_4g", "fastest_8g", "slowest_8g")
	}
}

// BenchmarkFig4Placement compares set-associative and
// distance-associative placement (paper Figure 4).
func BenchmarkFig4Placement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig4()
		report(b, e, "sa_group1_frac", "da_group1_frac")
	}
}

// BenchmarkFig5Policies measures the d-group access distribution of the
// three promotion policies (paper Figure 5).
func BenchmarkFig5Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig5()
		report(b, e, "g1_demotion_only", "g1_next_fastest", "g1_fastest")
	}
}

// BenchmarkFig6PolicyPerf measures promotion-policy performance relative
// to the base hierarchy (paper Figure 6).
func BenchmarkFig6PolicyPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig6()
		report(b, e, "rel_demotion_only", "rel_next_fastest", "rel_fastest", "rel_ideal")
	}
}

// BenchmarkLRUApprox compares random and true-LRU distance replacement
// (paper Sec. 5.3.1).
func BenchmarkLRUApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).LRUStudy()
		report(b, e, "g1_next-fastest/random", "g1_next-fastest/lru")
	}
}

// BenchmarkFig7Groups measures the access distribution of 2-, 4-, and
// 8-d-group NuRAPIDs (paper Figure 7).
func BenchmarkFig7Groups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig7()
		report(b, e, "g1_2groups", "g1_4groups", "g1_8groups")
	}
}

// BenchmarkFig8GroupPerf measures the performance of 2-, 4-, and
// 8-d-group NuRAPIDs (paper Figure 8).
func BenchmarkFig8GroupPerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig8()
		report(b, e, "rel_2groups", "rel_4groups", "rel_8groups")
	}
}

// BenchmarkFig9VsDNUCA compares NuRAPID with the D-NUCA baseline (paper
// Figure 9).
func BenchmarkFig9VsDNUCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig9()
		report(b, e, "rel_dnuca", "rel_nurapid_4g", "avg_improvement", "max_improvement")
	}
}

// BenchmarkFig10Energy compares L2 dynamic energy and d-group access
// counts (paper Sec. 5.4.2).
func BenchmarkFig10Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig10()
		report(b, e, "energy_reduction", "group_access_reduction")
	}
}

// BenchmarkFig11EnergyDelay compares processor energy-delay (paper Sec.
// 5.4.2).
func BenchmarkFig11EnergyDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunner(b).Fig11()
		report(b, e, "ed_nurapid", "ed_dnuca_perf", "ed_improvement")
	}
}

// BenchmarkFig6Serial regenerates Figure 6 on the serial runner; the
// parallel variant below is the same work on a GOMAXPROCS-wide pool.
// Comparing the two pins the runner's parallel speedup (the numbers
// behind BENCH_smoke.json's runner section; see TestBenchSmoke).
func BenchmarkFig6Serial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunnerWorkers(b, 1).Fig6()
		report(b, e, "rel_next_fastest")
	}
}

// BenchmarkFig6Parallel regenerates Figure 6 with a worker per core.
func BenchmarkFig6Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchRunnerWorkers(b, runtime.GOMAXPROCS(0)).Fig6()
		report(b, e, "rel_next_fastest")
	}
}

// BenchmarkNuRAPIDAccess measures the simulator's raw access throughput
// (not a paper figure; a regression guard for the hot path).
func BenchmarkNuRAPIDAccess(b *testing.B) {
	cache, _, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	app, _ := AppByName("applu")
	gen, _ := NewGenerator(app, 1)
	b.ResetTimer()
	now := int64(0)
	issued := 0
	for issued < b.N {
		in, _ := gen.Next()
		if in.Kind != workload.Load && in.Kind != workload.Store {
			continue
		}
		r := cache.Access(memsys.Req{Now: now, Addr: in.Addr, Write: in.Kind == workload.Store})
		now = r.DoneAt
		issued++
	}
}

// BenchmarkFullSystem measures end-to-end simulation speed in simulated
// instructions (not a paper figure; a regression guard).
func BenchmarkFullSystem(b *testing.B) {
	cache, _, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	core, err := NewCPU(DefaultCPUConfig(), cache)
	if err != nil {
		b.Fatal(err)
	}
	app, _ := AppByName("applu")
	gen, _ := NewGenerator(app, 1)
	b.ResetTimer()
	res := core.Run(gen, int64(b.N))
	if res.Instructions == 0 && b.N > 0 {
		b.Fatal("no instructions committed")
	}
}

// Core access-path benchmarks: the steady-state cost of one lower-level
// cache access for every organization and the full NuRAPID policy
// matrix. The headline configuration is also the core section of the
// bench smoke (TestBenchSmoke, `make bench-smoke`), whose gate fails
// when ns/access regresses more than 10% against BENCH_smoke.json.
package nurapid

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	core "nurapid/internal/nurapid"
	"nurapid/internal/uca"
)

// coreBenchAccesses is the length of the replayed request stream; long
// enough that the cache reaches steady state (full occupancy, ongoing
// promotions/demotions) well inside the first replay.
const coreBenchAccesses = 1 << 16

// coreBenchStream builds the deterministic access stream every core
// benchmark replays: conflict-heavy traffic over a few hundred sets with
// ~3x more live tags than ways, so steady state exercises hits in every
// d-group, misses, evictions, and demotion ripples.
func coreBenchStream(blockBytes, numSets int) []memsys.Req {
	rng := mathx.NewRNG(1)
	reqs := make([]memsys.Req, coreBenchAccesses)
	for i := range reqs {
		set := rng.Intn(256)
		tag := rng.Intn(24)
		reqs[i] = memsys.Req{
			Addr:  uint64(tag*numSets+set) * uint64(blockBytes),
			Write: rng.Bool(0.3),
			Gap:   int64(rng.Intn(4)),
		}
	}
	return reqs
}

// replayStream drives the whole stream through l2 once, back to back:
// request i issues when request i-1 completes plus its think-time gap —
// the same replay clock the differential harness uses.
func replayStream(l2 memsys.LowerLevel, now int64, reqs []memsys.Req) int64 {
	return memsys.AccessMany(l2, now, reqs, nil)
}

// benchCache measures ns/access and allocs/access of l2 in steady
// state: the first replay warms the cache, then each b.N iteration
// replays the full stream.
func benchCache(b *testing.B, l2 memsys.LowerLevel, blockBytes, numSets int) {
	reqs := coreBenchStream(blockBytes, numSets)
	now := replayStream(l2, 0, reqs) // warm-up replay reaches steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = replayStream(l2, now, reqs)
	}
	b.StopTimer()
	nsPerAccess := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(coreBenchAccesses)
	b.ReportMetric(nsPerAccess, "ns/access")
}

// nurapidBenchCfg is the benchmark geometry: 4 MB with the paper's
// 128-B blocks keeps construction fast while the conflict-heavy stream
// still thrashes every structure.
func nurapidBenchCfg(groups int, prom core.Promotion, dist core.DistancePolicy, placement core.Placement) core.Config {
	cfg := core.DefaultConfig()
	cfg.CapacityBytes = 4 << 20
	cfg.NumDGroups = groups
	cfg.Promotion = prom
	cfg.Distance = dist
	cfg.Placement = placement
	return cfg
}

// BenchmarkCoreNuRAPID is the headline steady-state benchmark (the
// bench smoke's core gate): the paper's primary design scaled to the bench
// geometry — 4 d-groups, next-fastest promotion, random distance
// replacement, distance-associative placement.
func BenchmarkCoreNuRAPID(b *testing.B) {
	cfg := nurapidBenchCfg(4, core.NextFastest, core.RandomDistance, core.DistanceAssociative)
	mem := memsys.NewMemory(cfg.BlockBytes)
	c := core.MustNew(cfg, cacti.Default(), mem)
	benchCache(b, c, cfg.BlockBytes, numSetsOf(cfg))
}

// BenchmarkCoreNuRAPIDMatrix covers the policy matrix: every promotion
// policy x distance policy under distance-associative placement, plus
// the set-associative comparison cache.
func BenchmarkCoreNuRAPIDMatrix(b *testing.B) {
	promos := []core.Promotion{core.DemotionOnly, core.NextFastest, core.Fastest}
	dists := []core.DistancePolicy{core.RandomDistance, core.LRUDistance}
	for _, prom := range promos {
		for _, dist := range dists {
			cfg := nurapidBenchCfg(4, prom, dist, core.DistanceAssociative)
			b.Run(prom.String()+"-"+dist.String(), func(b *testing.B) {
				mem := memsys.NewMemory(cfg.BlockBytes)
				benchCache(b, core.MustNew(cfg, cacti.Default(), mem), cfg.BlockBytes, numSetsOf(cfg))
			})
		}
	}
	sa := nurapidBenchCfg(4, core.NextFastest, core.RandomDistance, core.SetAssociative)
	b.Run("next-fastest-random-sa", func(b *testing.B) {
		mem := memsys.NewMemory(sa.BlockBytes)
		benchCache(b, core.MustNew(sa, cacti.Default(), mem), sa.BlockBytes, numSetsOf(sa))
	})
}

func numSetsOf(cfg core.Config) int {
	return int(cfg.CapacityBytes) / cfg.BlockBytes / cfg.Assoc
}

// BenchmarkCoreDNUCA measures the paper's 8-MB D-NUCA baseline under
// both smart-search policies.
func BenchmarkCoreDNUCA(b *testing.B) {
	for _, pol := range []nuca.SearchPolicy{nuca.SSPerformance, nuca.SSEnergy} {
		b.Run(pol.String(), func(b *testing.B) {
			c := nuca.MustNew(nuca.Config{Policy: pol}, cacti.Default(), memsys.NewMemory(nuca.BlockBytes))
			benchCache(b, c, nuca.BlockBytes, (8<<20)/nuca.BlockBytes/16) // 8 MB, 16-way
		})
	}
}

// BenchmarkCoreUCA measures the conventional baselines: the L2/L3
// base hierarchy and the ideal uniform bound.
func BenchmarkCoreUCA(b *testing.B) {
	m := cacti.Default()
	b.Run("base-l2l3", func(b *testing.B) {
		mem := memsys.NewMemory(uca.BlockBytes)
		h := uca.NewHierarchy(m, mem)
		benchCache(b, h, uca.BlockBytes, h.L3().Geometry().NumSets())
	})
	b.Run("ideal", func(b *testing.B) {
		mem := memsys.NewMemory(uca.BlockBytes)
		u := uca.NewIdeal(m, mem)
		benchCache(b, u, uca.BlockBytes, u.Cache().Geometry().NumSets())
	})
}

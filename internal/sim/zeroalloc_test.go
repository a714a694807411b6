package sim

import (
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
)

// zeroAllocOrgs is every obs-emitting organization, one instance per
// policy family. DESIGN.md's overhead contract says the nil-probe fast
// path allocates nothing per access; these tests pin that claim with
// testing.AllocsPerRun instead of trusting the benchmark suite.
func zeroAllocOrgs() []Organization {
	dnucaEnergy := nuca.DefaultConfig()
	dnucaEnergy.Policy = nuca.SSEnergy
	nrLRU := nurapid.DefaultConfig()
	nrLRU.Distance = nurapid.LRUDistance
	nrPred := nurapid.DefaultConfig()
	nrPred.Promotion = nurapid.PredictiveBypass
	nrPred.Distance = nurapid.DeadOnArrival
	nrPred.Memoize = true
	return []Organization{
		Base(),
		Ideal(),
		DNUCA(nuca.DefaultConfig()),
		DNUCA(dnucaEnergy),
		NuRAPID(nurapid.DefaultConfig()),
		NuRAPID(nrLRU),
		NuRAPID(nrPred),
	}
}

// zeroAllocStream builds a deterministic mixed request stream sized to
// cycle each organization through hits, misses, evictions, writebacks,
// promotions, and demotion ripples.
func zeroAllocStream(blockBytes int, n int) []memsys.Req {
	rng := mathx.NewRNG(7)
	reqs := make([]memsys.Req, n)
	for i := range reqs {
		block := uint64(rng.Intn(3000))
		reqs[i] = memsys.Req{
			Addr:  block * uint64(blockBytes),
			Write: rng.Bool(0.3),
			Gap:   int64(rng.Intn(4)),
		}
	}
	return reqs
}

// TestNilProbeAccessZeroAlloc drives every organization's steady-state
// access path with no probe attached and requires zero heap allocations
// per batch: every obs emission site must sit behind a nil check that
// keeps the Event from being constructed, let alone escaping.
func TestNilProbeAccessZeroAlloc(t *testing.T) {
	for _, org := range zeroAllocOrgs() {
		org := org
		t.Run(org.Key, func(t *testing.T) {
			mem := memsys.NewMemory(org.blockBytes())
			l2 := org.Factory(cacti.Default(), mem)
			reqs := zeroAllocStream(org.blockBytes(), 4096)
			// Warm: fill the cache and settle the movement machinery.
			now := memsys.AccessMany(l2, 0, reqs, nil)
			avg := testing.AllocsPerRun(10, func() {
				now = memsys.AccessMany(l2, now, reqs, nil)
			})
			if avg != 0 {
				t.Fatalf("nil-probe steady state allocates %.1f allocs per %d-access batch, want 0",
					avg, len(reqs))
			}
		})
	}
}

// countingProbe is the cheapest possible non-nil probe: it observes the
// event stream without retaining anything.
type countingProbe struct {
	n int64
}

func (p *countingProbe) Emit(obs.Event) { p.n++ }

// TestAttachedProbeEmissionZeroAlloc pins the other half of the
// overhead contract: Events are fixed-size structs passed by value, so
// even with a probe attached the emitting path itself performs no heap
// allocation (probes that retain events pay for their own storage).
func TestAttachedProbeEmissionZeroAlloc(t *testing.T) {
	for _, org := range zeroAllocOrgs() {
		org := org
		t.Run(org.Key, func(t *testing.T) {
			mem := memsys.NewMemory(org.blockBytes())
			l2 := org.Factory(cacti.Default(), mem)
			p, ok := l2.(obs.Probeable)
			if !ok {
				t.Fatalf("%s does not accept probes", org.Key)
			}
			probe := &countingProbe{}
			p.SetProbe(probe)
			reqs := zeroAllocStream(org.blockBytes(), 4096)
			now := memsys.AccessMany(l2, 0, reqs, nil)
			avg := testing.AllocsPerRun(10, func() {
				now = memsys.AccessMany(l2, now, reqs, nil)
			})
			if avg != 0 {
				t.Fatalf("probed steady state allocates %.1f allocs per %d-access batch, want 0",
					avg, len(reqs))
			}
			if probe.n == 0 {
				t.Fatal("probe observed no events; the test exercised nothing")
			}
		})
	}
}

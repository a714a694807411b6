package sim

import (
	"fmt"
	"os"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/workload"
)

// replayGoldens are the expected Fingerprint values of a fixed-seed
// batched replay: 40k memory requests of the mcf model at seed 1,
// replayed through one organization per family. The fingerprint folds
// every counter, the final clock, the energy total, and the memory
// traffic, so ANY behavioral change to an access path — intended or
// not — shows up here. When a change is intentional, regenerate with:
//
//	REPLAY_PRINT_GOLDENS=1 go test ./internal/sim -run TestReplayDeterminismGuard -v
//
// CI runs this test under -race: the guard doubles as a check that the
// batched fast paths share no hidden mutable state.
var replayGoldens = map[string]uint64{
	"base":                           0x1af7371c01312b2c,
	"ideal":                          0xd0ef9cef0f699de1,
	"dnuca-ss-performance":           0xaa13605614ddfcef,
	"dnuca-ss-energy":                0x07b9617385a0e3fb,
	"nurapid-4g-next-fastest-random": 0xdd1f6aaf81dc1028,
	"nurapid-4g-demotion-only-lru":   0x5b283e9d42df5c3c,
}

func replayGuardOrgs() []Organization {
	ssEnergy := nuca.DefaultConfig()
	ssEnergy.Policy = nuca.SSEnergy
	nrLRU := nurapid.DefaultConfig()
	nrLRU.Promotion = nurapid.DemotionOnly
	nrLRU.Distance = nurapid.LRUDistance
	return []Organization{
		Base(),
		Ideal(),
		DNUCA(nuca.DefaultConfig()),
		DNUCA(ssEnergy),
		NuRAPID(nurapid.DefaultConfig()),
		NuRAPID(nrLRU),
	}
}

// TestReplayDeterminismGuard replays a fixed trace through the batched
// AccessMany path of every organization family and compares the hash of
// counters + snapshot against a committed golden value.
func TestReplayDeterminismGuard(t *testing.T) {
	app, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf workload model missing")
	}
	reqs := ExtractTrace(app, 1, 40000)
	if len(reqs) != 40000 {
		t.Fatalf("trace extraction produced %d requests, want 40000", len(reqs))
	}
	model := cacti.Default()
	printGoldens := os.Getenv("REPLAY_PRINT_GOLDENS") != ""
	for _, org := range replayGuardOrgs() {
		org := org
		t.Run(org.Key, func(t *testing.T) {
			got := ReplayTrace(model, org, Trace{Reqs: reqs}).Fingerprint()
			if printGoldens {
				fmt.Printf("\t%q: %#016x,\n", org.Key, got)
				return
			}
			want, ok := replayGoldens[org.Key]
			if !ok {
				t.Fatalf("no golden fingerprint for %s (set REPLAY_PRINT_GOLDENS=1 to generate)", org.Key)
			}
			if got != want {
				t.Fatalf("fingerprint %#016x, want %#016x — the access path's observable "+
					"behavior changed; if intentional, regenerate goldens with REPLAY_PRINT_GOLDENS=1",
					got, want)
			}
		})
	}
}

package nurapid

import (
	"os"
	"testing"
	"time"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/memsys"
	core "nurapid/internal/nurapid"
	"nurapid/internal/workload"
)

// cmpBenchBaselineFile is the committed CMP perf baseline at the repo
// root. `make bench-cmp` rewrites it locally; CI reads the committed
// copy and fails on a >15% aggregate-throughput regression at any core
// count. The gate is looser than bench-core's 10% because a whole-
// system run (cores + L1s + queue + shared L2) is noisier than the
// isolated access path.
const cmpBenchBaselineFile = "BENCH_cmp.json"

// cmpBenchPoint is one core-count measurement in BENCH_cmp.json.
type cmpBenchPoint struct {
	Cores          int     `json:"cores"`
	L2Accesses     int64   `json:"l2_accesses"`
	WallNS         int64   `json:"wall_ns"`
	AccessesPerSec float64 `json:"l2_accesses_per_sec"`
	AggregateIPC   float64 `json:"aggregate_ipc"`
	Fairness       float64 `json:"fairness"`
}

// cmpBench is the record written to BENCH_cmp.json.
type cmpBench struct {
	Benchmark    string          `json:"benchmark"`
	App          string          `json:"app"`
	Instructions int64           `json:"instructions_per_core"`
	Sharing      string          `json:"sharing"`
	Points       []cmpBenchPoint `json:"points"`
}

// cmpBenchInstructions keeps one point under ~a second of simulated
// work while still reaching L2 steady state.
const cmpBenchInstructions = 200_000

// TestBenchCmpSmoke measures the CMP front end's aggregate wall-clock
// throughput (shared-L2 accesses per second of host time) at 1, 2, 4,
// and 8 cores on a shared NuRAPID L2, records the per-point IPC and
// fairness, writes BENCH_cmp.json, and — when a committed baseline
// exists — fails if any core count's throughput regressed more than
// 15% against it. It only runs when BENCH_CMP_JSON names the output
// file (make bench-cmp / CI), so plain `go test ./...` stays
// timing-free.
func TestBenchCmpSmoke(t *testing.T) {
	out := os.Getenv("BENCH_CMP_JSON")
	if out == "" {
		t.Skip("set BENCH_CMP_JSON=<path> to run the CMP bench smoke")
	}

	app, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("app mcf missing")
	}

	rec := cmpBench{
		Benchmark:    "cmp-nurapid-default/private",
		App:          app.Name,
		Instructions: cmpBenchInstructions,
		Sharing:      cmp.Private.String(),
	}
	for _, cores := range []int{1, 2, 4, 8} {
		mem := memsys.NewMemory(core.DefaultConfig().BlockBytes)
		l2 := core.MustNew(core.DefaultConfig(), cacti.Default(), mem)
		sys := cmp.MustNew(l2, cmp.Config{Cores: cores, Sharing: cmp.Private})

		// Best-of-N: the minimum is the least noisy estimator on a
		// shared machine. Each run needs a fresh system (the L2 and
		// cores carry state), so re-time the whole construction-free
		// Run; construction cost is negligible against the run itself.
		const tries = 3
		var res cmp.Result
		best := time.Duration(1<<63 - 1)
		for i := 0; i < tries; i++ {
			mem := memsys.NewMemory(core.DefaultConfig().BlockBytes)
			l2 := core.MustNew(core.DefaultConfig(), cacti.Default(), mem)
			sys = cmp.MustNew(l2, cmp.Config{Cores: cores, Sharing: cmp.Private})
			srcs, err := sys.Sources(app, 1)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			r := sys.Run(srcs, cmpBenchInstructions)
			if d := time.Since(start); d < best {
				best = d
				res = r
			}
		}

		var l2Accesses int64
		for i := range res.PerCore {
			l2Accesses += res.PerCore[i].Accesses
		}
		rec.Points = append(rec.Points, cmpBenchPoint{
			Cores:          cores,
			L2Accesses:     l2Accesses,
			WallNS:         best.Nanoseconds(),
			AccessesPerSec: float64(l2Accesses) / best.Seconds(),
			AggregateIPC:   res.AggregateIPC,
			Fairness:       res.Fairness,
		})
		t.Logf("cmp bench: %d cores, %d L2 accesses in %v (%.0f acc/s, IPC %.3f, fairness %.3f)",
			cores, l2Accesses, best, float64(l2Accesses)/best.Seconds(), res.AggregateIPC, res.Fairness)
	}

	// Regression gate against the committed baseline, when present.
	var base cmpBench
	if readBenchBaseline(t, cmpBenchBaselineFile, &base) {
		baseByCores := map[int]cmpBenchPoint{}
		for _, p := range base.Points {
			baseByCores[p.Cores] = p
		}
		for _, p := range rec.Points {
			b, ok := baseByCores[p.Cores]
			if !ok || b.AccessesPerSec <= 0 {
				continue
			}
			if p.AccessesPerSec < b.AccessesPerSec*0.85 {
				t.Errorf("%d-core throughput regressed: %.0f acc/s vs committed baseline %.0f (>15%%)",
					p.Cores, p.AccessesPerSec, b.AccessesPerSec)
			}
		}
	}

	writeBenchRecord(t, out, rec)
}

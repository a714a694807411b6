package nurapid

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"nurapid/internal/cmp"
	"nurapid/internal/obs"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// obsBench is the record the observability bench smoke writes to
// BENCH_obs.json: Fig6 wall time probe-free, with a nil-returning probe
// factory (the disabled fast path the <3% budget covers), and with full
// Collector+Sampler probes attached to every run. The cmp_ fields
// repeat the measurement on the 2-core shared-L2 CMP experiment, whose
// hot path adds the queue-side emissions (Enqueue/Issue/Inval) and the
// time-series registry; its disabled overhead is gated at <3% in the
// test itself.
type obsBench struct {
	Experiment          string  `json:"experiment"`
	Apps                int     `json:"apps"`
	Instructions        int64   `json:"instructions_per_run"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	Iterations          int     `json:"iterations"`
	BaselineNS          int64   `json:"baseline_ns"`
	NilProbeNS          int64   `json:"nil_probe_ns"`
	ProbedNS            int64   `json:"probed_ns"`
	DisabledOverhead    float64 `json:"disabled_overhead"` // nil_probe/baseline - 1
	EnabledOverhead     float64 `json:"enabled_overhead"`  // probed/baseline - 1
	CMPBaselineNS       int64   `json:"cmp_baseline_ns"`
	CMPNilProbeNS       int64   `json:"cmp_nil_probe_ns"`
	CMPProbedNS         int64   `json:"cmp_probed_ns"`
	CMPDisabledOverhead float64 `json:"cmp_disabled_overhead"` // cmp_nil_probe/cmp_baseline - 1
	CMPEnabledOverhead  float64 `json:"cmp_enabled_overhead"`  // cmp_probed/cmp_baseline - 1
}

// TestBenchObsSmoke measures the observability layer's overhead
// contract on the Fig6 workload and on the 2-core shared-L2 CMP
// experiment: a nil probe factory must leave the rendered experiment
// output byte-identical to a probe-free runner and cost (near) nothing
// — <3% on the queued CMP path, asserted here — and even full probes
// must not change the output.
// Wall times and overhead ratios land in BENCH_obs.json. It only runs
// when BENCH_OBS_JSON names the output file (make obs-bench / CI), so
// plain `go test ./...` stays timing-free.
func TestBenchObsSmoke(t *testing.T) {
	out := os.Getenv("BENCH_OBS_JSON")
	if out == "" {
		t.Skip("set BENCH_OBS_JSON=<path> to run the observability bench smoke")
	}

	var apps []workload.App
	for _, name := range benchApps {
		a, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		apps = append(apps, a)
	}

	timeExp := func(exp func(*sim.Runner) *sim.Experiment, extra []sim.Option) (time.Duration, string) {
		opts := []sim.Option{
			sim.WithInstructions(benchInstructions),
			sim.WithSeed(1),
			sim.WithApps(apps...),
			sim.WithWorkers(1), // serial: probe cost must not hide in idle cores
			sim.WithCores(2),
			sim.WithSharing(cmp.Shared),
		}
		opts = append(opts, extra...)
		r := sim.NewRunner(opts...)
		start := time.Now()
		e := exp(r)
		elapsed := time.Since(start)
		var buf bytes.Buffer
		if err := e.Render(&buf, false); err != nil {
			t.Fatal(err)
		}
		if err := r.ProbeErr(); err != nil {
			t.Fatal(err)
		}
		return elapsed, buf.String()
	}
	fig6 := func(r *sim.Runner) *sim.Experiment { return r.Fig6() }
	cmpExp := func(r *sim.Runner) *sim.Experiment { return r.CMP() }

	nilFactory := sim.WithProbe(func(app, org string) obs.Probe { return nil })
	fullFactory := sim.WithProbe(func(app, org string) obs.Probe {
		return obs.Multi(obs.NewCollector(), obs.NewSampler("occupancy", 0))
	})

	// Best-of-iterations damps scheduler noise in the short CI runs; the
	// three probe modes are interleaved each round so clock drift and
	// thermal throttling hit them evenly instead of biasing whichever
	// mode runs last.
	const iterations = 3
	type sample struct {
		d   time.Duration
		out string
	}
	bench := func(exp func(*sim.Runner) *sim.Experiment) (base, nilP, full sample) {
		extras := [3][]sim.Option{nil, {nilFactory}, {fullFactory}}
		var got [3]sample
		for i := 0; i < iterations; i++ {
			for m, extra := range extras {
				d, o := timeExp(exp, extra)
				if i == 0 {
					got[m] = sample{d, o}
					continue
				}
				if o != got[m].out {
					t.Fatal("repeated runs rendered different bytes")
				}
				if d < got[m].d {
					got[m].d = d
				}
			}
		}
		return got[0], got[1], got[2]
	}

	fig6Base, fig6Nil, fig6Full := bench(fig6)
	baseline, disabled, probed := fig6Base.d, fig6Nil.d, fig6Full.d
	if fig6Base.out != fig6Nil.out {
		t.Fatalf("nil-probe factory changed rendered output (%d vs %d bytes)",
			len(fig6Base.out), len(fig6Nil.out))
	}
	if fig6Base.out != fig6Full.out {
		t.Fatalf("full probes changed rendered output (%d vs %d bytes)",
			len(fig6Base.out), len(fig6Full.out))
	}

	cmpBaseS, cmpNilS, cmpFullS := bench(cmpExp)
	cmpBase, cmpDisabled, cmpProbed := cmpBaseS.d, cmpNilS.d, cmpFullS.d
	if cmpBaseS.out != cmpNilS.out {
		t.Fatalf("nil-probe factory changed CMP output (%d vs %d bytes)",
			len(cmpBaseS.out), len(cmpNilS.out))
	}
	if cmpBaseS.out != cmpFullS.out {
		t.Fatalf("full probes changed CMP output (%d vs %d bytes)",
			len(cmpBaseS.out), len(cmpFullS.out))
	}

	rec := obsBench{
		Experiment:          "fig6+cmp2",
		Apps:                len(apps),
		Instructions:        benchInstructions,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Iterations:          iterations,
		BaselineNS:          baseline.Nanoseconds(),
		NilProbeNS:          disabled.Nanoseconds(),
		ProbedNS:            probed.Nanoseconds(),
		DisabledOverhead:    float64(disabled)/float64(baseline) - 1,
		EnabledOverhead:     float64(probed)/float64(baseline) - 1,
		CMPBaselineNS:       cmpBase.Nanoseconds(),
		CMPNilProbeNS:       cmpDisabled.Nanoseconds(),
		CMPProbedNS:         cmpProbed.Nanoseconds(),
		CMPDisabledOverhead: float64(cmpDisabled)/float64(cmpBase) - 1,
		CMPEnabledOverhead:  float64(cmpProbed)/float64(cmpBase) - 1,
	}
	// The queued CMP path carries the new Enqueue/Issue/Inval emission
	// sites; its nil-probe fast path is budgeted at <3%.
	if rec.CMPDisabledOverhead > 0.03 {
		t.Fatalf("CMP disabled-probe overhead %.2f%% exceeds the 3%% budget",
			rec.CMPDisabledOverhead*100)
	}
	writeBenchRecord(t, out, rec)
	t.Logf("fig6 baseline %v, nil-probe %v (%+.1f%%), probed %v (%+.1f%%)",
		baseline, disabled, rec.DisabledOverhead*100, probed, rec.EnabledOverhead*100)
	t.Logf("cmp2 baseline %v, nil-probe %v (%+.1f%%), probed %v (%+.1f%%)",
		cmpBase, cmpDisabled, rec.CMPDisabledOverhead*100, cmpProbed, rec.CMPEnabledOverhead*100)
}

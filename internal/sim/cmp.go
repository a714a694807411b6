package sim

import (
	"fmt"

	"nurapid/internal/cmp"
	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
	"nurapid/internal/vis"
	"nurapid/internal/workload"
)

// WithCores sets how many cores the CMP experiments simulate over one
// shared lower level. The single-core experiments (the paper's tables
// and figures) ignore it.
func WithCores(n int) Option {
	return func(r *Runner) { r.cores = n }
}

// WithSharing selects the CMP workload sharing pattern (cmp.Shared or
// cmp.Private).
func WithSharing(s cmp.Sharing) Option {
	return func(r *Runner) { r.sharing = s }
}

// CMPRunResult captures one multi-core run: the cmp system's own
// result plus the energy the shared organization and memory consumed.
type CMPRunResult struct {
	App   string
	Org   string
	Cores int

	Res cmp.Result

	L2EnergyNJ  float64
	MemEnergyNJ float64

	// QueueMetrics is the shared bank-queue's contention snapshot.
	QueueMetrics []stats.KV

	// ObsMetrics holds the snapshots harvested from the run's probes
	// (time-series registry, collectors, trace sinks); empty when the
	// run was unprobed. Snapshot re-emits them under the obs_ prefix,
	// mirroring the single-core RunResult.
	ObsMetrics []stats.KV
}

// Snapshot emits the run's metrics (statsreg convention: every counter
// field must appear here).
func (r *CMPRunResult) Snapshot() []stats.KV {
	res := r.Res.Snapshot()
	out := make([]stats.KV, 0, 3+len(res)+len(r.QueueMetrics)+len(r.ObsMetrics))
	out = append(out,
		stats.KV{Name: "cores", Value: float64(r.Cores)},
		stats.KV{Name: "l2_energy_nj", Value: r.L2EnergyNJ},
		stats.KV{Name: "mem_energy_nj", Value: r.MemEnergyNJ},
	)
	out = append(out, res...)
	out = append(out, r.QueueMetrics...)
	for _, kv := range r.ObsMetrics {
		out = append(out, stats.KV{Name: stats.Name("obs_", kv.Name), Value: kv.Value})
	}
	return out
}

// cmpLabel names a CMP run in observer events and memo keys, e.g.
// "cmp4-shared-nurapid-4g-next-random".
func (r *Runner) cmpLabel(org Organization) string {
	return fmt.Sprintf("cmp%d-%s-%s", r.cmpCores(), r.sharing, org.Key)
}

// cmpCores returns the configured core count, defaulting to 2 so a
// plain NewRunner() can run the CMP experiment meaningfully.
func (r *Runner) cmpCores() int {
	if r.cores >= 1 {
		return r.cores
	}
	return 2
}

// RunCMP simulates app on Cores copies of the out-of-order core over
// one shared org, memoized on (app, cores, sharing, org key). Each core
// retires Instructions instructions, so the aggregate work scales with
// the core count. Like Run, a call outside an experiment prefetches
// that one run: the lane records app's fronts, which every organization
// of the app shares, and the cores time them. Probes and traces attach
// to the shared organization exactly as in single-core runs, under the
// cmp label.
func (r *Runner) RunCMP(app workload.App, org Organization) *CMPRunResult {
	r.prefetch(runSet{apps: []workload.App{app}, orgs: []Organization{org}, cmp: true})
	return memoized(r, r.cmpMemo, runKey(app.Name, r.cmpLabel(org)))
}

// runCMP executes app on org at the Runner's cores, memoized, timing
// the fronts fe that prefetch's schedule planned for it. A probed run
// also harvests the windowed time-series registry, fed the bank
// queue's latency profile: the latency waterfall, per-bank contention
// and rolling fairness land in ObsMetrics.
func (r *Runner) runCMP(app workload.App, org Organization, fe *shared[[]*cpu.Stream]) *CMPRunResult {
	label := r.cmpLabel(org)
	return runOnce(r, r.cmpMemo, runKey(app.Name, label), app.Name, label, func() (*CMPRunResult, RunEvent) {
		mem := memsys.NewMemory(org.blockBytes())
		l2 := org.Factory(r.model, mem)
		sys, err := cmp.New(l2, cmp.Config{
			Cores:      r.cmpCores(),
			Sharing:    r.sharing,
			L1EnergyNJ: r.model.L1NJ,
			Queue: cmp.QueueConfig{
				Banks:      8,
				BlockBytes: org.blockBytes(),
				Occupancy:  4,
				Cores:      r.cmpCores(),
			},
		})
		if err != nil {
			// All inputs are runner-controlled; an error is a bug.
			panic(fmt.Sprintf("sim: cmp system construction failed: %v", err))
		}
		probe := r.instrument(app.Name, label, sys, cmpTimeSeries(sys))
		fronts, frontEnd := r.waitFrontEnd(fe)
		cres := sys.RunFronts(fronts)

		res := &CMPRunResult{
			App:          app.Name,
			Org:          org.Key,
			Cores:        r.cmpCores(),
			Res:          cres,
			L2EnergyNJ:   l2.EnergyNJ(),
			MemEnergyNJ:  mem.EnergyNJ(),
			QueueMetrics: sys.Queue().Snapshot(),
			ObsMetrics:   r.finishProbe(probe),
		}
		sys.Release()
		return res, RunEvent{IPC: cres.AggregateIPC, Metrics: res.Snapshot(), FrontEnd: frontEnd}
	})
}

// cmpTimeSeries builds a probed CMP run's last probe: the windowed
// time series, fed sys's bank-queue latency profile.
func cmpTimeSeries(sys *cmp.System) func() obs.Probe {
	return func() obs.Probe {
		ts := obs.NewTimeSeries("ts", 0)
		ts.SetProfile(sys.Queue().LatencyProfile())
		return ts
	}
}

// CMP compares the three shared-L2 organizations under multi-core load:
// aggregate throughput, Jain's fairness over per-core IPC, queue
// contention stalls per kilo-access, and coherence shoot-downs. This is
// the repository's extension beyond the paper (the paper is
// single-core); the sharing pattern and core count come from
// WithCores/WithSharing.
func (r *Runner) CMP() *Experiment { return r.execute(r.cmpStudy()) }
func (r *Runner) cmpStudy() runSet {
	orgs := []Organization{Base(), DNUCA(nuca.DefaultConfig()), NuRAPID(nurapid.DefaultConfig())}
	return runSet{apps: r.apps, orgs: orgs, cmp: true, build: func() *Experiment {
		cores := r.cmpCores()
		t := stats.NewTable(
			fmt.Sprintf("CMP: %d cores, %s workloads, shared L2", cores, r.sharing),
			"benchmark", "org", "agg IPC", "fairness", "stall/ka", "invals")
		chart := vis.NewBarChart(fmt.Sprintf("Aggregate IPC at %d cores (mean over apps)", cores), "IPC")
		metrics := map[string]float64{}
		sumIPC := map[string]float64{}
		for _, app := range r.apps {
			for _, org := range orgs {
				res := r.RunCMP(app, org)
				var accesses, stalls int64
				for _, cs := range res.Res.PerCore {
					accesses += cs.Accesses
					stalls += cs.StallCycles
				}
				stallPerKA := 0.0
				if accesses > 0 {
					stallPerKA = float64(stalls) * 1000 / float64(accesses)
				}
				t.AddRow(app.Name, org.Key,
					res.Res.AggregateIPC, res.Res.Fairness, stallPerKA,
					float64(res.Res.Invalidations))
				sumIPC[org.Key] += res.Res.AggregateIPC
				metrics["ipc_"+app.Name+"_"+org.Key] = res.Res.AggregateIPC
				metrics["fairness_"+app.Name+"_"+org.Key] = res.Res.Fairness
			}
		}
		for _, org := range orgs {
			mean := sumIPC[org.Key] / float64(len(r.apps))
			chart.AddRow(org.Key, mean)
			metrics["mean_ipc_"+org.Key] = mean
		}
		return &Experiment{
			ID:      "cmp",
			Caption: fmt.Sprintf("Shared-L2 organizations at %d cores (%s)", cores, r.sharing),
			Table:   t,
			Chart:   chart,
			Metrics: metrics,
		}
	}}
}

package main

import (
	"fmt"

	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/sim"
	"nurapid/internal/stats"
	"nurapid/internal/vis"
	"nurapid/internal/workload"
)

// cmpCores is the core count of the cmp4-shared-probed workload.
const cmpCores = 4

// cmpOrgs are the organizations of Runner.CMP, in its order.
func cmpOrgs() []sim.Organization {
	return []sim.Organization{sim.Base(), sim.DNUCA(nuca.DefaultConfig()), sim.NuRAPID(nurapid.DefaultConfig())}
}

// collectorProbe is the WithProbe factory of the probed workload.
func collectorProbe(app, org string) obs.Probe { return obs.NewCollector() }

// cmpRun regenerates the CMP experiment: four cores with shared streams
// over each shared L2, probed by a Collector per run, on one worker.
type cmpRun struct {
	model *cacti.Model
	apps  []workload.App
	seed  uint64
	n     int64 // instructions per core
}

func (c *cmpRun) workers() int { return 1 }
func (c *cmpRun) jobs() int    { return len(c.apps) * len(cmpOrgs()) }

func (c *cmpRun) iterate(m mode) *iterOut {
	if m == traced {
		return c.traced()
	}
	out := &iterOut{}
	obsv := sim.ObserverFunc(func(e sim.RunEvent) {
		if e.Kind != sim.RunFinish {
			return
		}
		v := kv(e.Metrics)
		var reqs int64
		for i := 0; i < cmpCores; i++ {
			reqs += int64(v[fmt.Sprintf("core%d_queue_accesses", i)])
		}
		out.jobs++
		out.jobMS = append(out.jobMS, float64(e.Elapsed.Nanoseconds())/1e6)
		out.instr += int64(v["instructions"])
		out.l2Reqs += reqs
		if e.Org == cmpLabel(defaultKey) {
			out.nu.add(e.IPC, int64(v["cycles"]), reqs, v["l2_energy_nj"])
		}
	})
	opts := []sim.Option{sim.WithModel(c.model), sim.WithInstructions(c.n), sim.WithSeed(c.seed),
		sim.WithApps(c.apps...), sim.WithWorkers(1), sim.WithCores(cmpCores), sim.WithSharing(cmp.Shared),
		sim.WithObserver(obsv), sim.WithClock(clock)}
	if m != unprobed {
		opts = append(opts, sim.WithProbe(collectorProbe))
	}
	out.setRender(sim.NewRunner(opts...).CMP())
	return out
}

// cmpLabel is the org label Runner.RunCMP reports for orgKey.
func cmpLabel(orgKey string) string {
	return fmt.Sprintf("cmp%d-%s-%s", cmpCores, cmp.Shared, orgKey)
}

// traced runs the jobs Runner.RunCMP would, built from the same public
// constructors, with the shared L2, the per-core sources, the probe chain
// and System.Run behind timing wrappers; then assembles the table the way
// Runner.CMP does.
func (c *cmpRun) traced() *iterOut {
	out := &iterOut{}
	tr := &tracer{}
	results := map[string]cmp.Result{}
	for _, app := range c.apps {
		for _, org := range cmpOrgs() {
			j := newJob(tr, app.Name, org)
			mem := memsys.NewMemory(blockBytes(org))
			l2 := j.org(org).Factory(c.model, mem)
			sys, err := cmp.New(l2, cmp.Config{
				Cores:      cmpCores,
				Sharing:    cmp.Shared,
				L1EnergyNJ: c.model.L1NJ,
				Queue: cmp.QueueConfig{
					Banks:      8,
					BlockBytes: blockBytes(org),
					Occupancy:  4,
					Cores:      cmpCores,
				},
			})
			if err != nil {
				panic(fmt.Sprintf("perfbench: cmp system: %v", err))
			}
			// The probe chain Runner.RunCMP attaches: the factory's probe
			// plus a windowed time series.
			ts := obs.NewTimeSeries("ts", 0)
			ts.SetProfile(sys.Queue().LatencyProfile())
			probes := []obs.Probe{collectorProbe(app.Name, cmpLabel(org.Key)), ts}
			sys.SetProbe(&timedProbe{p: obs.Multi(probes...), acc: j.acc})
			srcs, err := sys.Sources(app, c.seed)
			if err != nil {
				panic(fmt.Sprintf("perfbench: cmp sources: %v", err))
			}
			for i := range srcs {
				srcs[i] = j.source(srcs[i])
			}
			var res cmp.Result
			j.run("cmp", "System.Run", func() { res = sys.Run(srcs, c.n) })
			// The result harvest Runner.RunCMP does after the run.
			queue := kv(sys.Queue().Snapshot())
			for _, p := range probes {
				if s, ok := p.(interface{ Snapshot() []stats.KV }); ok {
					_ = s.Snapshot()
				}
			}
			j.done()

			results[app.Name+"/"+org.Key] = res
			var reqs, writes, stall int64
			for _, cs := range res.PerCore {
				reqs += cs.Accesses
				writes += cs.Writes
				stall += cs.StallCycles
			}
			out.jobs++
			out.jobMS = append(out.jobMS, tr.spans[j.root].DurNS/1e6)
			out.instr += res.Instructions
			out.l2Reqs += reqs
			if org.Key == defaultKey {
				out.nu.add(res.AggregateIPC, res.Cycles, reqs, l2.EnergyNJ())
			}
			for _, cr := range res.Cores {
				out.sim.addCPU(cr)
			}
			out.sim.addL2(j.layer, j.l2.inner, mem.Accesses-mem.Writes, mem.Writes)
			s := &out.sim
			s.cmpAccesses += reqs
			s.cmpWrites += writes
			s.cmpStall += stall
			s.cmpConflicts += int64(queue["queue_conflicts"])
			s.cmpInvals += res.Invalidations
			s.cmpFairSum += res.Fairness
			s.cmpRuns++
		}
	}
	out.setRender(cmpExperiment(c.apps, results))
	out.spans = tr.spans
	return out
}

// cmpExperiment assembles the CMP table from per-job results exactly as
// Runner.CMP does; the golden check proves the bytes match.
func cmpExperiment(apps []workload.App, results map[string]cmp.Result) *sim.Experiment {
	orgs := cmpOrgs()
	t := stats.NewTable(
		fmt.Sprintf("CMP: %d cores, %s workloads, shared L2", cmpCores, cmp.Shared),
		"benchmark", "org", "agg IPC", "fairness", "stall/ka", "invals")
	chart := vis.NewBarChart(fmt.Sprintf("Aggregate IPC at %d cores (mean over apps)", cmpCores), "IPC")
	metrics := map[string]float64{}
	sumIPC := map[string]float64{}
	for _, app := range apps {
		for _, org := range orgs {
			res := results[app.Name+"/"+org.Key]
			var accesses, stalls int64
			for _, cs := range res.PerCore {
				accesses += cs.Accesses
				stalls += cs.StallCycles
			}
			stallPerKA := 0.0
			if accesses > 0 {
				stallPerKA = float64(stalls) * 1000 / float64(accesses)
			}
			t.AddRow(app.Name, org.Key,
				res.AggregateIPC, res.Fairness, stallPerKA,
				float64(res.Invalidations))
			sumIPC[org.Key] += res.AggregateIPC
			metrics["ipc_"+app.Name+"_"+org.Key] = res.AggregateIPC
			metrics["fairness_"+app.Name+"_"+org.Key] = res.Fairness
		}
	}
	for _, org := range orgs {
		mean := sumIPC[org.Key] / float64(len(apps))
		chart.AddRow(org.Key, mean)
		metrics["mean_ipc_"+org.Key] = mean
	}
	return &sim.Experiment{
		ID:      "cmp",
		Caption: fmt.Sprintf("Shared-L2 organizations at %d cores (%s)", cmpCores, cmp.Shared),
		Table:   t,
		Chart:   chart,
		Metrics: metrics,
	}
}

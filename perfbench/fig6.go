package main

import (
	"nurapid/internal/cacti"
	"nurapid/internal/cpu"
	"nurapid/internal/energy"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/stats"
	"nurapid/internal/vis"
	"nurapid/internal/workload"
)

// fig6Policies are the columns of Runner.Fig6, in its order.
func fig6Policies() []struct {
	label string
	org   sim.Organization
} {
	cfg := func(p nurapid.Promotion) nurapid.Config {
		c := nurapid.DefaultConfig()
		c.NumDGroups, c.Promotion, c.Distance = 4, p, nurapid.RandomDistance
		return c
	}
	return []struct {
		label string
		org   sim.Organization
	}{
		{"demotion-only", sim.NuRAPID(cfg(nurapid.DemotionOnly))},
		{"next-fastest", sim.NuRAPID(cfg(nurapid.NextFastest))},
		{"fastest", sim.NuRAPID(cfg(nurapid.Fastest))},
		{"ideal", sim.Ideal()},
	}
}

// fig6Run regenerates Figure 6: every app on the base hierarchy, the
// three NuRAPID promotion policies, and the ideal bound, on one worker.
type fig6Run struct {
	model *cacti.Model
	apps  []workload.App
	seed  uint64
	n     int64 // instructions per job
}

func (f *fig6Run) workers() int { return 1 }
func (f *fig6Run) jobs() int    { return len(f.apps) * (1 + len(fig6Policies())) }

func (f *fig6Run) iterate(m mode) *iterOut {
	if m == traced {
		return f.traced()
	}
	out := &iterOut{}
	obsv := sim.ObserverFunc(func(e sim.RunEvent) {
		if e.Kind != sim.RunFinish {
			return
		}
		v := kv(e.Metrics)
		out.jobs++
		out.jobMS = append(out.jobMS, float64(e.Elapsed.Nanoseconds())/1e6)
		out.instr += int64(v["cpu_instructions"])
		out.l2Reqs += int64(v["cpu_l2_accesses"])
		if e.Org == defaultKey {
			out.nu.add(e.IPC, int64(v["cpu_cycles"]), int64(v["cpu_l2_accesses"]), v["l2_energy_nj"])
		}
	})
	r := sim.NewRunner(sim.WithModel(f.model), sim.WithInstructions(f.n), sim.WithSeed(f.seed),
		sim.WithApps(f.apps...), sim.WithWorkers(1), sim.WithObserver(obsv), sim.WithClock(clock))
	out.setRender(r.Fig6())
	return out
}

// traced runs the same jobs in the same order as Runner.Run would,
// built from the same public constructors, with the L2, the instruction
// source and CPU.Run behind timing wrappers; then assembles the figure
// the way Runner.Fig6 does.
func (f *fig6Run) traced() *iterOut {
	out := &iterOut{}
	tr := &tracer{}
	orgs := []sim.Organization{sim.Base()}
	for _, p := range fig6Policies() {
		orgs = append(orgs, p.org)
	}
	cycles := map[string]int64{}
	for _, app := range f.apps {
		for _, org := range orgs {
			j := newJob(tr, app.Name, org)
			mem := memsys.NewMemory(blockBytes(org))
			l2 := j.org(org).Factory(f.model, mem)
			core := cpu.MustNew(l2, cpu.WithL1EnergyNJ(f.model.L1NJ))
			src := j.source(workload.MustNewGenerator(app, f.seed))
			var res cpu.Result
			j.run("cpu", "CPU.Run", func() { res = core.Run(src, f.n) })
			// The result harvest Runner.Run does after the core finishes.
			bd := energy.DefaultParams(f.model).Collect(res.Cycles, res.Instructions,
				res.L1DAccesses+res.L1IAccesses, l2.EnergyNJ(), mem.EnergyNJ())
			_ = energy.EnergyDelay(bd.TotalNJ(), res.Cycles)
			var ctrs stats.Counters
			for _, name := range l2.Counters().Names() {
				ctrs.Add(name, l2.Counters().Get(name))
			}
			j.done()

			cycles[app.Name+"/"+org.Key] = res.Cycles
			out.jobs++
			out.jobMS = append(out.jobMS, tr.spans[j.root].DurNS/1e6)
			out.instr += res.Instructions
			out.l2Reqs += res.L2Accesses
			if org.Key == defaultKey {
				out.nu.add(res.IPC, res.Cycles, res.L2Accesses, l2.EnergyNJ())
			}
			out.sim.addCPU(res)
			out.sim.addL2(j.layer, j.l2.inner, mem.Accesses-mem.Writes, mem.Writes)
		}
	}
	out.setRender(fig6Experiment(f.apps, cycles))
	out.spans = tr.spans
	return out
}

// fig6Experiment assembles Figure 6 from per-job cycle counts exactly as
// Runner.Fig6 does; the golden check proves the bytes match.
func fig6Experiment(apps []workload.App, cycles map[string]int64) *sim.Experiment {
	orgs := fig6Policies()
	base := sim.Base().Key
	relPerf := func(app string, org sim.Organization) float64 {
		o := cycles[app+"/"+org.Key]
		if o == 0 {
			return 0
		}
		return float64(cycles[app+"/"+base]) / float64(o)
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	t := stats.NewTable("Figure 6: performance relative to base L2/L3 hierarchy",
		"benchmark", "demotion-only", "next-fastest", "fastest", "ideal")
	rel := map[string][]float64{}
	relHigh := map[string][]float64{}
	relLow := map[string][]float64{}
	for _, app := range apps {
		row := []any{app.Name}
		for _, o := range orgs {
			p := relPerf(app.Name, o.org)
			row = append(row, p)
			rel[o.label] = append(rel[o.label], p)
			if app.Class.String() == "high" {
				relHigh[o.label] = append(relHigh[o.label], p)
			} else {
				relLow[o.label] = append(relLow[o.label], p)
			}
		}
		t.AddRow(row...)
	}
	addAvg := func(name string, m map[string][]float64) {
		row := []any{name}
		for _, o := range orgs {
			row = append(row, mean(m[o.label]))
		}
		t.AddRow(row...)
	}
	addAvg("HIGH-LOAD AVG", relHigh)
	addAvg("LOW-LOAD AVG", relLow)
	addAvg("OVERALL AVG", rel)
	chart := vis.NewBarChart("Average performance relative to base (paper Figure 6 style)", "x")
	chart.Reference = 1.0
	for _, o := range orgs {
		chart.AddRow(o.label, mean(rel[o.label]))
	}
	return &sim.Experiment{ID: "fig6", Caption: "Promotion-policy performance", Table: t,
		Chart: chart,
		Metrics: map[string]float64{
			"rel_demotion_only":     mean(rel["demotion-only"]),
			"rel_next_fastest":      mean(rel["next-fastest"]),
			"rel_fastest":           mean(rel["fastest"]),
			"rel_ideal":             mean(rel["ideal"]),
			"rel_next_fastest_high": mean(relHigh["next-fastest"]),
			"rel_next_fastest_low":  mean(relLow["next-fastest"]),
		}}
}

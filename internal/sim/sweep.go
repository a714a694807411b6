package sim

import (
	"fmt"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
)

// CapacitySweep extends the paper's design space along total cache
// capacity: a 4-, 8- (the paper), and 16-MB NuRAPID, each with 2-MB
// d-groups, against the fixed base hierarchy. The wire model scales the
// d-group latencies with the floorplan, so bigger caches pay for their
// slower far groups.
func (r *Runner) CapacitySweep() *Experiment { return r.execute(r.capacitySweep()) }
func (r *Runner) capacitySweep() runSet {
	capacities := []struct{ mb, groups int }{{4, 2}, {8, 4}, {16, 8}}
	orgs := make([]Organization, len(capacities))
	for i, c := range capacities {
		cfg := nurapid.DefaultConfig()
		cfg.CapacityBytes = int64(c.mb) << 20
		cfg.NumDGroups = c.groups
		orgs[i] = NuRAPID(cfg)
		orgs[i].Key = fmt.Sprintf("%s-%dmb", orgs[i].Key, c.mb)
	}
	return runSet{apps: r.apps, orgs: append([]Organization{Base()}, orgs...), build: func() *Experiment {
		t := stats.NewTable("Capacity sweep: NuRAPID with 2-MB d-groups vs the 8-MB base hierarchy",
			"benchmark", "4 MB", "8 MB (paper)", "16 MB")
		rel := map[int][]float64{}
		for _, app := range r.apps {
			row := []any{app.Name}
			for i, c := range capacities {
				p := r.RelPerf(app, orgs[i])
				row = append(row, p)
				rel[c.mb] = append(rel[c.mb], p)
			}
			t.AddRow(row...)
		}
		t.AddRow("AVERAGE", mathx.Mean(rel[4]), mathx.Mean(rel[8]), mathx.Mean(rel[16]))
		return &Experiment{ID: "sweep-capacity", Caption: "Capacity sensitivity", Table: t,
			Metrics: map[string]float64{
				"rel_4mb":  mathx.Mean(rel[4]),
				"rel_8mb":  mathx.Mean(rel[8]),
				"rel_16mb": mathx.Mean(rel[16]),
			}}
	}}
}

// BlockSweep varies the NuRAPID block size (64, 128, 256 bytes). Because
// the base hierarchy is defined at 128-B blocks, this sweep reports the
// absolute behaviour of each variant — IPC, L2 accesses per
// kilo-instruction, and miss rate — rather than relative performance.
// The runner derives the backing memory's block size from each
// organization's config, so every variant's fills and transfer charges
// match its actual block.
func (r *Runner) BlockSweep() *Experiment { return r.execute(r.blockSweep()) }
func (r *Runner) blockSweep() runSet {
	blocks := []int{64, 128, 256}
	orgs := make([]Organization, len(blocks))
	for i, bb := range blocks {
		cfg := nurapid.DefaultConfig()
		cfg.BlockBytes = bb
		orgs[i] = NuRAPID(cfg)
	}
	return runSet{apps: r.apps, orgs: orgs, build: func() *Experiment {
		t := stats.NewTable("Block-size sweep: 8-MB, 4-d-group NuRAPID",
			"benchmark", "block", "IPC", "APKI", "miss rate")
		ipc := map[int][]float64{}
		miss := map[int][]float64{}
		for _, app := range r.apps {
			for i, bb := range blocks {
				res := r.Run(app, orgs[i])
				t.AddRow(app.Name, fmt.Sprintf("%d B", bb),
					res.CPU.IPC, res.CPU.APKI, stats.Percent(res.L2Dist.MissFrac()))
				ipc[bb] = append(ipc[bb], res.CPU.IPC)
				miss[bb] = append(miss[bb], res.L2Dist.MissFrac())
			}
		}
		for _, bb := range blocks {
			t.AddRow("AVERAGE", fmt.Sprintf("%d B", bb), mathx.Mean(ipc[bb]), "-", stats.Percent(mathx.Mean(miss[bb])))
		}
		return &Experiment{ID: "sweep-block", Caption: "Block-size sensitivity", Table: t,
			Metrics: map[string]float64{
				"ipc_64":   mathx.Mean(ipc[64]),
				"ipc_128":  mathx.Mean(ipc[128]),
				"ipc_256":  mathx.Mean(ipc[256]),
				"miss_64":  mathx.Mean(miss[64]),
				"miss_256": mathx.Mean(miss[256]),
			}}
	}}
}

// TechSweep models the paper's motivating trend — global wires slowing
// relative to logic across technology generations — by scaling the
// model's wire delay and energy 1x (the calibrated 70-nm point), 1.5x,
// and 2x, and comparing NuRAPID directly against D-NUCA at each point.
// Both organizations' latencies derive from the same scaled model, so
// the ratio isolates how each design tolerates wire-dominated caches.
func (r *Runner) TechSweep() *Experiment { return r.execute(r.techSweep()) }
func (r *Runner) techSweep() runSet {
	scales := []float64{1.0, 1.5, 2.0}
	var orgs []Organization // NuRAPID, then D-NUCA, at each scale
	for _, s := range scales {
		orgs = append(orgs, wireScaled(NuRAPID(nurapid.DefaultConfig()), "nurapid", s),
			wireScaled(DNUCA(nuca.DefaultConfig()), "dnuca", s))
	}
	return runSet{apps: r.apps, orgs: orgs, build: func() *Experiment {
		t := stats.NewTable("Technology sweep: NuRAPID-4g cycles relative to D-NUCA (higher = NuRAPID faster)",
			"benchmark", "wires 1.0x (70nm)", "wires 1.5x", "wires 2.0x")
		rel := map[float64][]float64{}
		for _, app := range r.apps {
			row := []any{app.Name}
			for i, s := range scales {
				nu, dn := orgs[2*i], orgs[2*i+1]
				ratio := float64(r.Run(app, dn).CPU.Cycles) / float64(r.Run(app, nu).CPU.Cycles)
				row = append(row, ratio)
				rel[s] = append(rel[s], ratio)
			}
			t.AddRow(row...)
		}
		t.AddRow("AVERAGE", mathx.Mean(rel[1.0]), mathx.Mean(rel[1.5]), mathx.Mean(rel[2.0]))
		return &Experiment{ID: "sweep-tech", Caption: "Wire-delay scaling", Table: t,
			Metrics: map[string]float64{
				"vs_dnuca_1.0x": mathx.Mean(rel[1.0]),
				"vs_dnuca_1.5x": mathx.Mean(rel[1.5]),
				"vs_dnuca_2.0x": mathx.Mean(rel[2.0]),
			}}
	}}
}

// wireScaled rebuilds org against the runner's model with wire delay and
// energy scaled by scale, keyed like "nurapid-wire1.50x". Scaling leaves
// the L1 energy untouched, so the core model sees the same L1 either way.
func wireScaled(org Organization, name string, scale float64) Organization {
	factory := org.Factory
	org.Key = fmt.Sprintf("%s-wire%.2fx", name, scale)
	org.Factory = func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		return factory(m.Scaled(scale), mem)
	}
	return org
}

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
func (r *Runner) CapacitySweep() *Experiment {
	t := stats.NewTable("Capacity sweep: NuRAPID with 2-MB d-groups vs the 8-MB base hierarchy",
		"benchmark", "4 MB", "8 MB (paper)", "16 MB")
	capacities := []struct {
		mb     int
		groups int
	}{{4, 2}, {8, 4}, {16, 8}}
	orgs := []Organization{Base()}
	byMB := map[int]Organization{}
	for _, c := range capacities {
		cfg := nurapid.DefaultConfig()
		cfg.CapacityBytes = int64(c.mb) << 20
		cfg.NumDGroups = c.groups
		org := NuRAPID(cfg)
		org.Key = fmt.Sprintf("%s-%dmb", org.Key, c.mb)
		orgs = append(orgs, org)
		byMB[c.mb] = org
	}
	r.Prefetch(r.apps, orgs)
	rel := map[int][]float64{}
	for _, app := range r.apps {
		row := []any{app.Name}
		for _, c := range capacities {
			p := r.RelPerf(app, byMB[c.mb])
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
}

// BlockSweep varies the NuRAPID block size (64, 128, 256 bytes). Because
// the base hierarchy is defined at 128-B blocks, this sweep reports the
// absolute behaviour of each variant — IPC, L2 accesses per
// kilo-instruction, and miss rate — rather than relative performance.
// The runner derives the backing memory's block size from each
// organization's config, so every variant's fills and transfer charges
// match its actual block.
func (r *Runner) BlockSweep() *Experiment {
	t := stats.NewTable("Block-size sweep: 8-MB, 4-d-group NuRAPID",
		"benchmark", "block", "IPC", "APKI", "miss rate")
	blocks := []int{64, 128, 256}
	byBlock := map[int]Organization{}
	orgs := make([]Organization, 0, len(blocks))
	for _, bb := range blocks {
		cfg := nurapid.DefaultConfig()
		cfg.BlockBytes = bb
		byBlock[bb] = NuRAPID(cfg)
		orgs = append(orgs, byBlock[bb])
	}
	r.Prefetch(r.apps, orgs)
	ipc := map[int][]float64{}
	miss := map[int][]float64{}
	for _, app := range r.apps {
		for _, bb := range blocks {
			res := r.Run(app, byBlock[bb])
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
}

// TechSweep models the paper's motivating trend — global wires slowing
// relative to logic across technology generations — by scaling the
// model's wire delay and energy 1x (the calibrated 70-nm point), 1.5x,
// and 2x, and comparing NuRAPID directly against D-NUCA at each point.
// Both organizations' latencies derive from the same scaled model, so
// the ratio isolates how each design tolerates wire-dominated caches.
func (r *Runner) TechSweep() *Experiment {
	t := stats.NewTable("Technology sweep: NuRAPID-4g cycles relative to D-NUCA (higher = NuRAPID faster)",
		"benchmark", "wires 1.0x (70nm)", "wires 1.5x", "wires 2.0x")
	scales := []float64{1.0, 1.5, 2.0}
	nu := map[float64]Organization{}
	dn := map[float64]Organization{}
	var orgs []Organization
	for _, s := range scales {
		nu[s] = wireScaled(NuRAPID(nurapid.DefaultConfig()), "nurapid", s)
		dn[s] = wireScaled(DNUCA(nuca.DefaultConfig()), "dnuca", s)
		orgs = append(orgs, nu[s], dn[s])
	}
	r.Prefetch(r.apps, orgs)
	rel := map[float64][]float64{}
	for _, app := range r.apps {
		row := []any{app.Name}
		for _, s := range scales {
			ratio := float64(r.Run(app, dn[s]).CPU.Cycles) / float64(r.Run(app, nu[s]).CPU.Cycles)
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

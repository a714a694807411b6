package sim

import (
	"fmt"

	"nurapid/internal/floorplan"
	"nurapid/internal/stats"
)

// Table1 echoes the simulated system parameters (paper Table 1).
func (r *Runner) Table1() *Experiment {
	t := stats.NewTable("Table 1: System parameters", "parameter", "value")
	t.AddRowStrings("Issue width", "8")
	t.AddRowStrings("RUU (instruction window)", "64 entries")
	t.AddRowStrings("LSQ size", "32 entries")
	t.AddRowStrings("L1 i-cache", "64K, 2-way, 32 byte blocks, 3 cycle hit, 1 port, pipelined")
	t.AddRowStrings("L1 d-cache", "64K, 2-way, 32 byte blocks, 3 cycle hit, 1 port, 8 MSHRs")
	t.AddRowStrings("Memory latency", "130 cycles + 4 cycles per 8 bytes")
	t.AddRowStrings("Branch mispredict penalty", "9 cycles")
	t.AddRowStrings("Base L2", "1 MB, 8-way, 128 B blocks, 11 cycle hit")
	t.AddRowStrings("Base L3", "8 MB, 8-way, 128 B blocks, 43 cycle hit")
	t.AddRowStrings("NuRAPID", "8 MB, 8-way, 128 B blocks, 2/4/8 d-groups")
	t.AddRowStrings("D-NUCA", "8 MB, 16-way, 128 x 64 KB banks, 8 groups/set")
	t.AddRowStrings("Technology / clock", "70 nm, 5 GHz")
	return &Experiment{ID: "table1", Caption: "System parameters", Table: t,
		Metrics: map[string]float64{}}
}

// Table2 regenerates the paper's cache-energy table from the cacti model.
func (r *Runner) Table2() *Experiment {
	m := r.model
	t := stats.NewTable("Table 2: Example cache energies in nJ", "operation", "energy (nJ)")
	p4 := floorplan.NewLShapedPlan(8, 4)
	p8 := floorplan.NewLShapedPlan(8, 8)
	e4 := m.DGroupEnergies(p4)
	e8 := m.DGroupEnergies(p8)
	grid := floorplan.NewNUCAGrid(8, 64)
	eb := m.NUCABankEnergies(grid)
	order := grid.BanksByDistance()
	closest, farthest := eb[order[0]], eb[order[len(order)-1]]
	avgOther := 0.0
	for _, b := range order[1:] {
		avgOther += eb[b]
	}
	avgOther /= float64(len(order) - 1)

	t.AddRow("Tag + access: closest of 4, 2-MB d-groups", e4[0])
	t.AddRow("Tag + access: farthest of 4, 2-MB d-groups (includes routing)", e4[3])
	t.AddRow("Tag + access: closest of 8, 1-MB d-groups", e8[0])
	t.AddRow("Tag + access: farthest of 8, 1-MB d-groups (includes routing)", e8[7])
	t.AddRow("Tag + access: closest 64-KB NUCA d-group", closest)
	t.AddRow("Tag + access: other 64-KB NUCA d-groups, average (includes routing)", avgOther)
	t.AddRow("Tag + access: farthest 64-KB NUCA d-group (includes routing)", farthest)
	t.AddRow("Access 7-bit-per-entry, 16-way NUCA sm-search array", m.SmartSearchNJ)
	t.AddRow("Tag + access: 2 ports of low-latency 64-KB 2-way L1 cache", m.L1NJ)
	return &Experiment{ID: "table2", Caption: "Cache energies", Table: t,
		Metrics: map[string]float64{
			"closest_2mb_nj":  e4[0],
			"farthest_2mb_nj": e4[3],
			"closest_1mb_nj":  e8[0],
			"farthest_1mb_nj": e8[7],
			"closest_nuca_nj": closest,
		}}
}

// Table3 reports the application roster with the Table 3 anchors next to
// the measured base-case IPC and L2 accesses per kilo-instruction.
func (r *Runner) Table3() *Experiment { return r.execute(r.table3()) }
func (r *Runner) table3() runSet {
	base := Base()
	return runSet{apps: r.apps, orgs: []Organization{base}, build: func() *Experiment {
		t := stats.NewTable("Table 3: Applications and L2 load (base case)",
			"benchmark", "type", "class", "paper IPC", "IPC", "paper APKI", "APKI")
		metrics := map[string]float64{}
		for _, app := range r.apps {
			res := r.Run(app, base)
			typ := "Int"
			if app.FP {
				typ = "FP"
			}
			t.AddRow(app.Name, typ, app.Class.String(),
				app.TableIPC, res.CPU.IPC, app.TableAPKI, res.CPU.APKI)
			metrics["apki_"+app.Name] = res.CPU.APKI
			metrics["ipc_"+app.Name] = res.CPU.IPC
		}
		return &Experiment{ID: "table3", Caption: "Application L2 loads", Table: t, Metrics: metrics}
	}}
}

// Table4 regenerates the latency table: per-megabyte access latency for
// the three NuRAPID configurations and the D-NUCA average.
func (r *Runner) Table4() *Experiment {
	m := r.model
	t := stats.NewTable("Table 4: Cache latencies in cycles",
		"capacity", "2 d-groups", "4 d-groups", "8 d-groups", "D-NUCA (avg)")
	lat := map[int][]int{}
	for _, n := range groupCounts {
		lat[n] = m.DGroupLatencies(floorplan.NewLShapedPlan(8, n))
	}
	nucaAvg := []int{7, 11, 14, 17, 20, 23, 26, 29}
	metrics := map[string]float64{}
	for mb := 0; mb < 8; mb++ {
		row := make([]string, 5)
		row[0] = fmt.Sprintf("MB %d", mb+1)
		for i, n := range groupCounts {
			group := mb / (8 / n)
			row[i+1] = fmt.Sprintf("%d", lat[n][group])
		}
		row[4] = fmt.Sprintf("%d", nucaAvg[mb])
		t.AddRowStrings(row...)
	}
	metrics["fastest_2g"] = float64(lat[2][0])
	metrics["fastest_4g"] = float64(lat[4][0])
	metrics["fastest_8g"] = float64(lat[8][0])
	metrics["slowest_8g"] = float64(lat[8][7])
	return &Experiment{ID: "table4", Caption: "Cache latencies", Table: t, Metrics: metrics}
}

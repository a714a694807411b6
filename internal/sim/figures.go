package sim

import (
	"fmt"

	"nurapid/internal/mathx"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
	"nurapid/internal/vis"
)

// groupCounts are the d-group counts of Table 4 and Figures 7 and 8.
var groupCounts = []int{2, 4, 8}

// groupCountOrgs returns the NuRAPIDs of groupCounts, in its order.
func groupCountOrgs() []Organization {
	orgs := make([]Organization, len(groupCounts))
	for i, n := range groupCounts {
		orgs[i] = NuRAPID(nurapidCfg(n, nurapid.NextFastest, nurapid.RandomDistance))
	}
	return orgs
}

// promotionPolicies returns the three promotion policies Figures 5 and
// 6 compare, all with 4 d-groups and random distance replacement.
func promotionPolicies() []variant {
	return []variant{
		{"demotion-only", NuRAPID(nurapidCfg(4, nurapid.DemotionOnly, nurapid.RandomDistance))},
		{"next-fastest", NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance))},
		{"fastest", NuRAPID(nurapidCfg(4, nurapid.Fastest, nurapid.RandomDistance))},
	}
}

// meanAt averages column i of a set of fraction vectors.
func meanAt(rows [][]float64, i int) float64 {
	if len(rows) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range rows {
		s += r[i]
	}
	return s / float64(len(rows))
}

// Fig4 compares set-associative and distance-associative placement in a
// 4-d-group non-uniform cache (paper Figure 4): the fraction of L2
// accesses served by d-group 1, d-group 2, d-groups 3+4, and misses. To
// isolate placement, both caches place new blocks in the fastest d-group
// and promote next-fastest; the set-associative cache uses LRU
// throughout, NuRAPID uses random distance replacement.
func (r *Runner) Fig4() *Experiment { return r.execute(r.fig4()) }
func (r *Runner) fig4() runSet {
	saCfg := nurapidCfg(4, nurapid.NextFastest, nurapid.LRUDistance)
	saCfg.Placement = nurapid.SetAssociative
	sa := NuRAPID(saCfg)
	da := NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance))
	return runSet{apps: r.apps, orgs: []Organization{sa, da}, build: func() *Experiment {
		t := stats.NewTable("Figure 4: d-group access distribution, set-associative (a) vs distance-associative (b) placement",
			"benchmark", "a:g1", "a:g2", "a:g3+4", "a:miss", "b:g1", "b:g2", "b:g3+4", "b:miss")
		var saF, daF [][]float64
		for _, app := range r.apps {
			sf, df := r.Run(app, sa).L2Dist.Fracs(), r.Run(app, da).L2Dist.Fracs()
			t.AddRow(app.Name,
				stats.Percent(sf[0]), stats.Percent(sf[1]), stats.Percent(sf[2]+sf[3]), stats.Percent(sf[4]),
				stats.Percent(df[0]), stats.Percent(df[1]), stats.Percent(df[2]+df[3]), stats.Percent(df[4]))
			saF = append(saF, sf)
			daF = append(daF, df)
		}
		t.AddRow("AVERAGE",
			stats.Percent(meanAt(saF, 0)), stats.Percent(meanAt(saF, 1)),
			stats.Percent(meanAt(saF, 2)+meanAt(saF, 3)), stats.Percent(meanAt(saF, 4)),
			stats.Percent(meanAt(daF, 0)), stats.Percent(meanAt(daF, 1)),
			stats.Percent(meanAt(daF, 2)+meanAt(daF, 3)), stats.Percent(meanAt(daF, 4)))

		chart := vis.NewStackedChart("Average access distribution (paper Figure 4 style)",
			"d-group 1", "d-group 2", "d-groups 3+4", "miss")
		chart.AddRow("set-assoc", meanAt(saF, 0), meanAt(saF, 1), meanAt(saF, 2)+meanAt(saF, 3), meanAt(saF, 4))
		chart.AddRow("dist-assoc", meanAt(daF, 0), meanAt(daF, 1), meanAt(daF, 2)+meanAt(daF, 3), meanAt(daF, 4))

		return &Experiment{ID: "fig4", Caption: "Set-associative vs distance-associative placement", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"sa_group1_frac": meanAt(saF, 0),
				"da_group1_frac": meanAt(daF, 0),
				"sa_last2_frac":  meanAt(saF, 2) + meanAt(saF, 3),
				"da_last2_frac":  meanAt(daF, 2) + meanAt(daF, 3),
			}}
	}}
}

// Fig5 shows the d-group access distribution of the three distance
// replacement policies (paper Figure 5): demotion-only, next-fastest,
// fastest, all with 4 d-groups and random distance replacement.
func (r *Runner) Fig5() *Experiment { return r.execute(r.fig5()) }
func (r *Runner) fig5() runSet {
	vs := promotionPolicies()
	return runSet{apps: r.apps, orgs: orgsOf(vs), build: func() *Experiment {
		t := stats.NewTable("Figure 5: d-group access distribution per promotion policy",
			"benchmark", "policy", "g1", "g2", "g3", "g4", "miss")
		fracs := map[string][][]float64{}
		for _, app := range r.apps {
			for _, v := range vs {
				f := r.Run(app, v.org).L2Dist.Fracs()
				t.AddRow(app.Name, v.label,
					stats.Percent(f[0]), stats.Percent(f[1]), stats.Percent(f[2]),
					stats.Percent(f[3]), stats.Percent(f[4]))
				fracs[v.label] = append(fracs[v.label], f)
			}
		}
		chart := vis.NewStackedChart("Average access distribution per policy (paper Figure 5 style)",
			"d-group 1", "d-group 2", "d-group 3", "d-group 4", "miss")
		for _, v := range vs {
			f := fracs[v.label]
			t.AddRow("AVERAGE", v.label,
				stats.Percent(meanAt(f, 0)), stats.Percent(meanAt(f, 1)), stats.Percent(meanAt(f, 2)),
				stats.Percent(meanAt(f, 3)), stats.Percent(meanAt(f, 4)))
			chart.AddRow(v.label, meanAt(f, 0), meanAt(f, 1), meanAt(f, 2), meanAt(f, 3), meanAt(f, 4))
		}
		return &Experiment{ID: "fig5", Caption: "Promotion-policy access distribution", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"g1_demotion_only": meanAt(fracs["demotion-only"], 0),
				"g1_next_fastest":  meanAt(fracs["next-fastest"], 0),
				"g1_fastest":       meanAt(fracs["fastest"], 0),
			}}
	}}
}

// Fig6 compares the performance of the three promotion policies and the
// ideal bound, relative to the base L2/L3 hierarchy (paper Figure 6).
func (r *Runner) Fig6() *Experiment { return r.execute(r.fig6()) }
func (r *Runner) fig6() runSet {
	vs := append(promotionPolicies(), variant{"ideal", Ideal()})
	return runSet{apps: r.apps, orgs: orgsOf(vs, Base()), build: func() *Experiment {
		t := stats.NewTable("Figure 6: performance relative to base L2/L3 hierarchy",
			"benchmark", "demotion-only", "next-fastest", "fastest", "ideal")
		rel := map[string][]float64{}
		relHigh := map[string][]float64{}
		relLow := map[string][]float64{}
		for _, app := range r.apps {
			row := []any{app.Name}
			for _, v := range vs {
				p := r.RelPerf(app, v.org)
				row = append(row, p)
				rel[v.label] = append(rel[v.label], p)
				if app.Class.String() == "high" {
					relHigh[v.label] = append(relHigh[v.label], p)
				} else {
					relLow[v.label] = append(relLow[v.label], p)
				}
			}
			t.AddRow(row...)
		}
		addAvg := func(name string, m map[string][]float64) {
			row := []any{name}
			for _, v := range vs {
				row = append(row, mathx.Mean(m[v.label]))
			}
			t.AddRow(row...)
		}
		addAvg("HIGH-LOAD AVG", relHigh)
		addAvg("LOW-LOAD AVG", relLow)
		addAvg("OVERALL AVG", rel)
		chart := vis.NewBarChart("Average performance relative to base (paper Figure 6 style)", "x")
		chart.Reference = 1.0
		for _, v := range vs {
			chart.AddRow(v.label, mathx.Mean(rel[v.label]))
		}
		return &Experiment{ID: "fig6", Caption: "Promotion-policy performance", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"rel_demotion_only":     mathx.Mean(rel["demotion-only"]),
				"rel_next_fastest":      mathx.Mean(rel["next-fastest"]),
				"rel_fastest":           mathx.Mean(rel["fastest"]),
				"rel_ideal":             mathx.Mean(rel["ideal"]),
				"rel_next_fastest_high": mathx.Mean(relHigh["next-fastest"]),
				"rel_next_fastest_low":  mathx.Mean(relLow["next-fastest"]),
			}}
	}}
}

// LRUStudy reproduces Sec. 5.3.1: random vs true-LRU distance
// replacement, under demotion-only and next-fastest promotion, measured
// as the average fraction of accesses served by the first d-group.
func (r *Runner) LRUStudy() *Experiment { return r.execute(r.lruStudy()) }
func (r *Runner) lruStudy() runSet {
	vs := []variant{
		{"demotion-only/random", NuRAPID(nurapidCfg(4, nurapid.DemotionOnly, nurapid.RandomDistance))},
		{"demotion-only/lru", NuRAPID(nurapidCfg(4, nurapid.DemotionOnly, nurapid.LRUDistance))},
		{"next-fastest/random", NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance))},
		{"next-fastest/lru", NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.LRUDistance))},
	}
	return runSet{apps: r.apps, orgs: orgsOf(vs), build: func() *Experiment {
		t := stats.NewTable("Sec 5.3.1: distance-replacement selection policy (avg first d-group accesses)",
			"policy", "g1 accesses")
		metrics := map[string]float64{}
		for _, v := range vs {
			var g1 []float64
			for _, app := range r.apps {
				g1 = append(g1, r.Run(app, v.org).L2Dist.HitFrac(0))
			}
			t.AddRow(v.label, stats.Percent(mathx.Mean(g1)))
			metrics["g1_"+v.label] = mathx.Mean(g1)
		}
		return &Experiment{ID: "lru", Caption: "Random vs LRU distance replacement", Table: t, Metrics: metrics}
	}}
}

// Fig7 shows the access distribution of 2-, 4-, and 8-d-group NuRAPIDs
// (paper Figure 7): first-group accesses, remaining-group hits, misses.
func (r *Runner) Fig7() *Experiment { return r.execute(r.fig7()) }
func (r *Runner) fig7() runSet {
	orgs := groupCountOrgs()
	return runSet{apps: r.apps, orgs: orgs, build: func() *Experiment {
		t := stats.NewTable("Figure 7: d-group access distribution for 2, 4, and 8 d-groups",
			"benchmark", "2g:g1", "2g:rest", "2g:miss", "4g:g1", "4g:rest", "4g:miss",
			"8g:g1", "8g:rest", "8g:miss")
		g1 := map[int][]float64{}
		for _, app := range r.apps {
			row := []any{app.Name}
			for i, n := range groupCounts {
				res := r.Run(app, orgs[i])
				first := res.L2Dist.HitFrac(0)
				rest := 0.0
				for g := 1; g < res.L2Dist.NumCategories(); g++ {
					rest += res.L2Dist.HitFrac(g)
				}
				row = append(row, stats.Percent(first), stats.Percent(rest), stats.Percent(res.L2Dist.MissFrac()))
				g1[n] = append(g1[n], first)
			}
			t.AddRow(row...)
		}
		t.AddRow("AVERAGE",
			stats.Percent(mathx.Mean(g1[2])), "-", "-",
			stats.Percent(mathx.Mean(g1[4])), "-", "-",
			stats.Percent(mathx.Mean(g1[8])), "-", "-")
		chart := vis.NewStackedChart("Average first-group accesses by d-group count (paper Figure 7 style)",
			"d-group 1", "other hits + misses")
		for _, n := range groupCounts {
			chart.AddRow(fmt.Sprintf("%d d-groups", n), mathx.Mean(g1[n]), 1-mathx.Mean(g1[n]))
		}
		return &Experiment{ID: "fig7", Caption: "d-group count access distribution", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"g1_2groups": mathx.Mean(g1[2]),
				"g1_4groups": mathx.Mean(g1[4]),
				"g1_8groups": mathx.Mean(g1[8]),
			}}
	}}
}

// Fig8 compares the performance of 2-, 4-, and 8-d-group NuRAPIDs
// relative to the base hierarchy (paper Figure 8), and reports the
// promotion-swap ratio between the 8- and 4-d-group configurations.
func (r *Runner) Fig8() *Experiment { return r.execute(r.fig8()) }
func (r *Runner) fig8() runSet {
	orgs := groupCountOrgs()
	return runSet{apps: r.apps, orgs: append([]Organization{Base()}, orgs...), build: func() *Experiment {
		t := stats.NewTable("Figure 8: performance of 2, 4, and 8 d-groups relative to base",
			"benchmark", "2 d-groups", "4 d-groups", "8 d-groups")
		rel := map[int][]float64{}
		swaps := map[int]int64{}
		for _, app := range r.apps {
			row := []any{app.Name}
			for i, n := range groupCounts {
				p := r.RelPerf(app, orgs[i])
				row = append(row, p)
				rel[n] = append(rel[n], p)
				swaps[n] += r.Run(app, orgs[i]).L2Ctrs.Get("promotions")
			}
			t.AddRow(row...)
		}
		t.AddRow("AVERAGE", mathx.Mean(rel[2]), mathx.Mean(rel[4]), mathx.Mean(rel[8]))
		swapRatio := 0.0
		if swaps[4] > 0 {
			swapRatio = float64(swaps[8]) / float64(swaps[4])
		}
		chart := vis.NewBarChart("Average performance by d-group count (paper Figure 8 style)", "x")
		chart.Reference = 1.0
		for _, n := range groupCounts {
			chart.AddRow(fmt.Sprintf("%d d-groups", n), mathx.Mean(rel[n]))
		}
		return &Experiment{ID: "fig8", Caption: "d-group count performance", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"rel_2groups":    mathx.Mean(rel[2]),
				"rel_4groups":    mathx.Mean(rel[4]),
				"rel_8groups":    mathx.Mean(rel[8]),
				"swap_ratio_8v4": swapRatio,
			}}
	}}
}

// Fig9 compares D-NUCA (ss-performance) with the 4- and 8-d-group
// NuRAPIDs, relative to base (paper Figure 9).
func (r *Runner) Fig9() *Experiment { return r.execute(r.fig9()) }
func (r *Runner) fig9() runSet {
	dn := DNUCA(nuca.DefaultConfig())
	n4 := NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance))
	n8 := NuRAPID(nurapidCfg(8, nurapid.NextFastest, nurapid.RandomDistance))
	return runSet{apps: r.apps, orgs: []Organization{Base(), dn, n4, n8}, build: func() *Experiment {
		t := stats.NewTable("Figure 9: performance relative to base (D-NUCA ss-performance vs NuRAPID)",
			"benchmark", "D-NUCA", "NuRAPID 4g", "NuRAPID 8g")
		var rd, r4, r8 []float64
		for _, app := range r.apps {
			pd, p4, p8 := r.RelPerf(app, dn), r.RelPerf(app, n4), r.RelPerf(app, n8)
			t.AddRow(app.Name, pd, p4, p8)
			rd = append(rd, pd)
			r4 = append(r4, p4)
			r8 = append(r8, p8)
		}
		t.AddRow("AVERAGE", mathx.Mean(rd), mathx.Mean(r4), mathx.Mean(r8))
		// Per-app improvement of 4-d-group NuRAPID over D-NUCA.
		var imp []float64
		maxImp := 0.0
		for i := range rd {
			v := r4[i]/rd[i] - 1
			imp = append(imp, v)
			if v > maxImp {
				maxImp = v
			}
		}
		chart := vis.NewBarChart("Average performance relative to base (paper Figure 9 style)", "x")
		chart.Reference = 1.0
		chart.AddRow("D-NUCA ss-perf", mathx.Mean(rd))
		chart.AddRow("NuRAPID 4g", mathx.Mean(r4))
		chart.AddRow("NuRAPID 8g", mathx.Mean(r8))
		return &Experiment{ID: "fig9", Caption: "NuRAPID vs D-NUCA performance", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"rel_dnuca":       mathx.Mean(rd),
				"rel_nurapid_4g":  mathx.Mean(r4),
				"rel_nurapid_8g":  mathx.Mean(r8),
				"avg_improvement": mathx.Mean(imp),
				"max_improvement": maxImp,
			}}
	}}
}

// Fig10 compares L2 dynamic energy across organizations (paper Sec.
// 5.4.2): the base hierarchy, D-NUCA under its energy-optimal ss-energy
// policy, and NuRAPID; plus the d-group (bank) access counts behind the
// paper's "61% fewer d-group accesses" claim.
func (r *Runner) Fig10() *Experiment { return r.execute(r.fig10()) }
func (r *Runner) fig10() runSet {
	base, dn := Base(), DNUCA(nuca.Config{Policy: nuca.SSEnergy})
	n4 := NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance))
	return runSet{apps: r.apps, orgs: []Organization{base, dn, n4}, build: func() *Experiment {
		t := stats.NewTable("Figure 10: L2 dynamic energy (nJ per 1000 instructions)",
			"benchmark", "base L2/L3", "D-NUCA (ss-energy)", "NuRAPID 4g", "NuRAPID/D-NUCA")
		var ratios, reds, perBase, perDN, perNu []float64
		var nuAcc, dnAcc int64
		for _, app := range r.apps {
			b, d, n := r.Run(app, base), r.Run(app, dn), r.Run(app, n4)
			ratio := 0.0
			if d.L2EnergyNJ > 0 {
				ratio = n.L2EnergyNJ / d.L2EnergyNJ
			}
			t.AddRow(app.Name, b.l2NJPerKInstr(), d.l2NJPerKInstr(), n.l2NJPerKInstr(), ratio)
			ratios = append(ratios, ratio)
			reds = append(reds, 1-ratio)
			perBase = append(perBase, b.l2NJPerKInstr())
			perDN = append(perDN, d.l2NJPerKInstr())
			perNu = append(perNu, n.l2NJPerKInstr())
			for _, a := range n.L2GroupAccesses {
				nuAcc += a
			}
			dnAcc += d.L2Ctrs.Get("bank_accesses")
		}
		t.AddRow("AVERAGE", mathx.Mean(perBase), mathx.Mean(perDN), mathx.Mean(perNu), mathx.Mean(ratios))
		accRatio := 0.0
		if dnAcc > 0 {
			accRatio = float64(nuAcc) / float64(dnAcc)
		}
		chart := vis.NewBarChart("Average L2 dynamic energy (nJ per 1000 instructions)", " nJ")
		chart.AddRow("base L2/L3", mathx.Mean(perBase))
		chart.AddRow("D-NUCA ss-energy", mathx.Mean(perDN))
		chart.AddRow("NuRAPID 4g", mathx.Mean(perNu))
		return &Experiment{ID: "fig10", Caption: "L2 dynamic energy", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"energy_ratio_nurapid_dnuca": mathx.Mean(ratios),
				"energy_reduction":           mathx.Mean(reds),
				"group_access_ratio":         accRatio,
				"group_access_reduction":     1 - accRatio,
			}}
	}}
}

// Fig11 compares processor energy-delay relative to base (paper Sec.
// 5.4.2): values below 1 are better than the conventional hierarchy.
func (r *Runner) Fig11() *Experiment { return r.execute(r.fig11()) }
func (r *Runner) fig11() runSet {
	base, dnPerf, dnEnergy := Base(), DNUCA(nuca.DefaultConfig()), DNUCA(nuca.Config{Policy: nuca.SSEnergy})
	n4 := NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance))
	return runSet{apps: r.apps, orgs: []Organization{base, dnPerf, dnEnergy, n4}, build: func() *Experiment {
		t := stats.NewTable("Figure 11: processor energy-delay relative to base",
			"benchmark", "D-NUCA (ss-perf)", "D-NUCA (ss-energy)", "NuRAPID 4g")
		var rp, re, rn []float64
		for _, app := range r.apps {
			b := r.Run(app, base)
			rel := func(o Organization) float64 {
				if b.ED == 0 {
					return 0
				}
				return r.Run(app, o).ED / b.ED
			}
			p, e, n := rel(dnPerf), rel(dnEnergy), rel(n4)
			t.AddRow(app.Name, p, e, n)
			rp = append(rp, p)
			re = append(re, e)
			rn = append(rn, n)
		}
		t.AddRow("AVERAGE", mathx.Mean(rp), mathx.Mean(re), mathx.Mean(rn))
		chart := vis.NewBarChart("Average processor energy-delay relative to base (lower is better)", "x")
		chart.Reference = 1.0
		chart.AddRow("D-NUCA ss-perf", mathx.Mean(rp))
		chart.AddRow("D-NUCA ss-energy", mathx.Mean(re))
		chart.AddRow("NuRAPID 4g", mathx.Mean(rn))
		return &Experiment{ID: "fig11", Caption: "Processor energy-delay", Table: t,
			Chart: chart,
			Metrics: map[string]float64{
				"ed_dnuca_perf":   mathx.Mean(rp),
				"ed_dnuca_energy": mathx.Mean(re),
				"ed_nurapid":      mathx.Mean(rn),
				"ed_improvement":  1 - mathx.Mean(rn),
			}}
	}}
}

package sim

import (
	"fmt"

	"nurapid/internal/mathx"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
)

// Ablation sweeps the design choices the paper fixes without a full
// sensitivity study, beyond its published figures:
//
//   - promotion trigger: promote on every hit (the paper) vs. screening
//     a block for k hits before moving it;
//   - pointer restriction (Sec. 2.4.3): full 16-bit flexibility vs. the
//     256-frame partitions that shrink pointers to 10 bits;
//   - D-NUCA search policies, including the basic incremental search the
//     smart-search array improves on.
//
// Each row reports average relative performance (vs. the base L2/L3),
// average first-d-group access fraction, and total L2 dynamic energy
// across the roster.
func (r *Runner) Ablation() *Experiment {
	type variant struct {
		label string
		org   Organization
	}
	mkNurapid := func(label string, mutate func(*nurapid.Config)) variant {
		cfg := nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance)
		if mutate != nil {
			mutate(&cfg)
		}
		return variant{label: label, org: NuRAPID(cfg)}
	}
	mkDNUCA := func(label string, policy nuca.SearchPolicy) variant {
		cfg := nuca.DefaultConfig()
		cfg.Policy = policy
		return variant{label: label, org: DNUCA(cfg)}
	}
	variants := []variant{
		mkNurapid("nurapid trigger=1 (paper)", nil),
		mkNurapid("nurapid trigger=2", func(c *nurapid.Config) { c.PromoteHits = 2 }),
		mkNurapid("nurapid trigger=4", func(c *nurapid.Config) { c.PromoteHits = 4 }),
		mkNurapid("nurapid 10-bit pointers", func(c *nurapid.Config) { c.RestrictFrames = 256 }),
		mkDNUCA("dnuca ss-performance", nuca.SSPerformance),
		mkDNUCA("dnuca ss-energy", nuca.SSEnergy),
		mkDNUCA("dnuca incremental", nuca.Incremental),
	}
	prefetch := []Organization{Base()}
	for _, v := range variants {
		prefetch = append(prefetch, v.org)
	}
	r.Prefetch(r.apps, prefetch)

	t := stats.NewTable("Ablations: design-choice sensitivity (averages over all applications)",
		"variant", "rel perf", "g1 accesses", "L2 energy (nJ/1k instr)", "swaps")
	metrics := map[string]float64{}
	type sums struct {
		rel, g1, enj []float64
		swaps        int64
	}
	acc := make([]sums, len(variants))
	for _, app := range r.apps {
		for i, v := range variants {
			a := &acc[i]
			a.rel = append(a.rel, r.RelPerf(app, v.org))
			res := r.Run(app, v.org)
			a.g1 = append(a.g1, res.L2Dist.HitFrac(0))
			a.enj = append(a.enj, res.L2EnergyNJ*1000/float64(res.CPU.Instructions))
			a.swaps += res.L2Ctrs.Get("promotions")
		}
	}
	for i, v := range variants {
		a := acc[i]
		t.AddRow(v.label, mathx.Mean(a.rel), stats.Percent(mathx.Mean(a.g1)), mathx.Mean(a.enj), fmt.Sprintf("%d", a.swaps))
		slug := slugify(v.label)
		metrics["rel_"+slug] = mathx.Mean(a.rel)
		metrics["g1_"+slug] = mathx.Mean(a.g1)
		metrics["energy_"+slug] = mathx.Mean(a.enj)
	}
	return &Experiment{ID: "ablation", Caption: "Design-choice ablations", Table: t, Metrics: metrics}
}

func slugify(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c == ' ', c == '=', c == '-', c == '(', c == ')':
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	return string(out)
}

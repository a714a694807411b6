package sim

import (
	"fmt"

	"nurapid/internal/mathx"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
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
// average first-d-group access fraction, average L2 dynamic energy per
// 1000 instructions, and the promotion swaps summed over the roster.
func (r *Runner) Ablation() *Experiment { return r.execute(r.ablation()) }
func (r *Runner) ablation() runSet {
	return r.variantStudy("ablation", "Design-choice ablations",
		"Ablations: design-choice sensitivity (averages over all applications)", r.apps,
		[]variant{
			nurapidVariant("nurapid trigger=1 (paper)", nil),
			nurapidVariant("nurapid trigger=2", func(c *nurapid.Config) { c.PromoteHits = 2 }),
			nurapidVariant("nurapid trigger=4", func(c *nurapid.Config) { c.PromoteHits = 4 }),
			nurapidVariant("nurapid 10-bit pointers", func(c *nurapid.Config) { c.RestrictFrames = 256 }),
			{"dnuca ss-performance", DNUCA(nuca.Config{Policy: nuca.SSPerformance})},
			{"dnuca ss-energy", DNUCA(nuca.Config{Policy: nuca.SSEnergy})},
			{"dnuca incremental", DNUCA(nuca.Config{Policy: nuca.Incremental})},
		},
		counterColumn{"swaps", "promotions"})
}

// nurapidVariant is the paper's NuRAPID (4 d-groups, next-fastest
// promotion, random distance replacement) with mutate applied.
func nurapidVariant(label string, mutate func(*nurapid.Config)) variant {
	cfg := nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance)
	if mutate != nil {
		mutate(&cfg)
	}
	return variant{label: label, org: NuRAPID(cfg)}
}

// counterColumn is a variant-study column summing one L2 counter over
// the apps.
type counterColumn struct{ header, counter string }

// variantStudy plans a table of variants averaged over apps: each row
// reports the variant's average performance relative to the base L2/L3,
// its average fastest-d-group access fraction, its average L2 dynamic
// energy per 1000 instructions, and each ctrs counter summed over the
// apps. The metrics are the three averages, keyed by the label's slug.
func (r *Runner) variantStudy(id, caption, title string, apps []workload.App, vs []variant, ctrs ...counterColumn) runSet {
	return runSet{apps: apps, orgs: orgsOf(vs, Base()), build: func() *Experiment {
		headers := []string{"variant", "rel perf", "g1 accesses", "L2 energy (nJ/1k instr)"}
		for _, c := range ctrs {
			headers = append(headers, c.header)
		}
		t := stats.NewTable(title, headers...)
		metrics := map[string]float64{}
		for _, v := range vs {
			var rel, g1, enj []float64
			sums := make([]int64, len(ctrs))
			for _, app := range apps {
				rel = append(rel, r.RelPerf(app, v.org))
				res := r.Run(app, v.org)
				g1 = append(g1, res.L2Dist.HitFrac(0))
				enj = append(enj, res.l2NJPerKInstr())
				for i, c := range ctrs {
					sums[i] += res.L2Ctrs.Get(c.counter)
				}
			}
			row := []any{v.label, mathx.Mean(rel), stats.Percent(mathx.Mean(g1)), mathx.Mean(enj)}
			for _, n := range sums {
				row = append(row, fmt.Sprintf("%d", n))
			}
			t.AddRow(row...)
			slug := slugify(v.label)
			metrics["rel_"+slug] = mathx.Mean(rel)
			metrics["g1_"+slug] = mathx.Mean(g1)
			metrics["energy_"+slug] = mathx.Mean(enj)
		}
		return &Experiment{ID: id, Caption: caption, Table: t, Metrics: metrics}
	}}
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

package sim

import (
	"fmt"

	"nurapid/internal/mathx"
	"nurapid/internal/nurapid"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// PredictorStudy ablates the reuse-distance predictor family against the
// paper's NuRAPID configuration (4 d-groups, next-fastest promotion,
// random distance replacement):
//
//   - predictive bypass: a sampled dead-block predictor suppresses the
//     promotion trigger for blocks it classifies as streaming, keeping
//     single-use data from displacing hot blocks in the fast d-group;
//   - dead-on-arrival fills: predicted-dead misses install directly into
//     the slowest d-group instead of the fastest;
//   - memoized forward pointers: repeat accesses to a set's most recent
//     block skip the centralized tag probe and credit its energy back.
//
// The roster is the paper's 15 applications plus the synthetic streaming
// application (workload.Streaming), which supplies the access pattern the
// predictor is built for. Each row reports average relative performance
// (vs. the base L2/L3), average fastest-d-group access fraction, L2
// dynamic energy, and the predictor's own activity counters.
func (r *Runner) PredictorStudy() *Experiment {
	type variant struct {
		label string
		org   Organization
	}
	mk := func(label string, mutate func(*nurapid.Config)) variant {
		cfg := nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance)
		if mutate != nil {
			mutate(&cfg)
		}
		return variant{label: label, org: NuRAPID(cfg)}
	}
	variants := []variant{
		mk("nurapid baseline (paper)", nil),
		mk("predictive bypass", func(c *nurapid.Config) {
			c.Promotion = nurapid.PredictiveBypass
		}),
		mk("dead-on-arrival fills", func(c *nurapid.Config) {
			c.Distance = nurapid.DeadOnArrival
		}),
		mk("bypass + dead-on-arrival", func(c *nurapid.Config) {
			c.Promotion = nurapid.PredictiveBypass
			c.Distance = nurapid.DeadOnArrival
		}),
		mk("memoized pointers", func(c *nurapid.Config) {
			c.Memoize = true
		}),
		mk("all predictor features", func(c *nurapid.Config) {
			c.Promotion = nurapid.PredictiveBypass
			c.Distance = nurapid.DeadOnArrival
			c.Memoize = true
		}),
	}
	apps := append(append([]workload.App(nil), r.apps...), workload.Streaming())
	prefetch := []Organization{Base()}
	for _, v := range variants {
		prefetch = append(prefetch, v.org)
	}
	r.Prefetch(apps, prefetch)

	t := stats.NewTable("Predictor family: placement/promotion ablations (averages over all applications + stream)",
		"variant", "rel perf", "g1 accesses", "L2 energy (nJ/1k instr)", "bypasses", "dead fills", "memo hits")
	metrics := map[string]float64{}
	type sums struct {
		rel, g1, enj                  []float64
		bypasses, deadFills, memoHits int64
	}
	acc := make([]sums, len(variants))
	for _, app := range apps {
		for i, v := range variants {
			a := &acc[i]
			a.rel = append(a.rel, r.RelPerf(app, v.org))
			res := r.Run(app, v.org)
			a.g1 = append(a.g1, res.L2Dist.HitFrac(0))
			a.enj = append(a.enj, res.L2EnergyNJ*1000/float64(res.CPU.Instructions))
			a.bypasses += res.L2Ctrs.Get("bypasses")
			a.deadFills += res.L2Ctrs.Get("dead_fills")
			a.memoHits += res.L2Ctrs.Get("memo_hits")
		}
	}
	for i, v := range variants {
		a := acc[i]
		t.AddRow(v.label, mathx.Mean(a.rel), stats.Percent(mathx.Mean(a.g1)), mathx.Mean(a.enj),
			fmt.Sprintf("%d", a.bypasses), fmt.Sprintf("%d", a.deadFills), fmt.Sprintf("%d", a.memoHits))
		slug := slugify(v.label)
		metrics["rel_"+slug] = mathx.Mean(a.rel)
		metrics["g1_"+slug] = mathx.Mean(a.g1)
		metrics["energy_"+slug] = mathx.Mean(a.enj)
	}
	return &Experiment{ID: "predictor", Caption: "Reuse-distance predictor ablations", Table: t, Metrics: metrics}
}

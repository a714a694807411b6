package sim

import (
	"nurapid/internal/nurapid"
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
func (r *Runner) PredictorStudy() *Experiment { return r.execute(r.predictorStudy()) }
func (r *Runner) predictorStudy() runSet {
	return r.variantStudy("predictor", "Reuse-distance predictor ablations",
		"Predictor family: placement/promotion ablations (averages over all applications + stream)",
		append(append([]workload.App(nil), r.apps...), workload.Streaming()),
		[]variant{
			nurapidVariant("nurapid baseline (paper)", nil),
			nurapidVariant("predictive bypass", func(c *nurapid.Config) {
				c.Promotion = nurapid.PredictiveBypass
			}),
			nurapidVariant("dead-on-arrival fills", func(c *nurapid.Config) {
				c.Distance = nurapid.DeadOnArrival
			}),
			nurapidVariant("bypass + dead-on-arrival", func(c *nurapid.Config) {
				c.Promotion = nurapid.PredictiveBypass
				c.Distance = nurapid.DeadOnArrival
			}),
			nurapidVariant("memoized pointers", func(c *nurapid.Config) {
				c.Memoize = true
			}),
			nurapidVariant("all predictor features", func(c *nurapid.Config) {
				c.Promotion = nurapid.PredictiveBypass
				c.Distance = nurapid.DeadOnArrival
				c.Memoize = true
			}),
		},
		counterColumn{"bypasses", "bypasses"}, counterColumn{"dead fills", "dead_fills"}, counterColumn{"memo hits", "memo_hits"})
}

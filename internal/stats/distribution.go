package stats

import (
	"fmt"
	"strings"
)

// Distribution tallies events into a fixed set of ordered categories plus
// an implicit "miss" category. It models the stacked-bar charts of the
// paper's Figures 4, 5, and 7: the fraction of all L2 accesses served by
// each d-group, plus the miss fraction.
type Distribution struct {
	labels []string
	counts []int64
	misses int64
}

// NewDistribution creates a distribution over the given category labels.
func NewDistribution(labels ...string) *Distribution {
	return &Distribution{
		labels: append([]string(nil), labels...),
		counts: make([]int64, len(labels)),
	}
}

// AddHit records one event in category i. It panics on out-of-range i so
// that miscounted d-group indices fail loudly in tests.
//
//nurapid:hotpath
func (d *Distribution) AddHit(i int) {
	d.counts[i]++
}

// AddMiss records one miss event.
//
//nurapid:hotpath
func (d *Distribution) AddMiss() { d.misses++ }

// Total returns the number of recorded events including misses.
func (d *Distribution) Total() int64 {
	t := d.misses
	for _, c := range d.counts {
		t += c
	}
	return t
}

// HitFrac returns the fraction of all events that hit in category i.
func (d *Distribution) HitFrac(i int) float64 {
	return Frac(d.counts[i], d.Total())
}

// MissFrac returns the fraction of all events that missed.
func (d *Distribution) MissFrac() float64 {
	return Frac(d.misses, d.Total())
}

// HitCount returns the raw count for category i.
func (d *Distribution) HitCount(i int) int64 { return d.counts[i] }

// MissCount returns the raw miss count.
func (d *Distribution) MissCount() int64 { return d.misses }

// NumCategories returns the number of hit categories (excluding misses).
func (d *Distribution) NumCategories() int { return len(d.labels) }

// Fracs returns the per-category hit fractions followed by the miss
// fraction; the slice sums to ~1 when Total() > 0.
func (d *Distribution) Fracs() []float64 {
	out := make([]float64, len(d.counts)+1)
	for i := range d.counts {
		out[i] = d.HitFrac(i)
	}
	out[len(d.counts)] = d.MissFrac()
	return out
}

// String renders the distribution as "label: NN.N%" segments.
func (d *Distribution) String() string {
	var b strings.Builder
	for i, l := range d.labels {
		fmt.Fprintf(&b, "%s: %s  ", l, Percent(d.HitFrac(i)))
	}
	fmt.Fprintf(&b, "miss: %s", Percent(d.MissFrac()))
	return b.String()
}

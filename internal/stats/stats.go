// Package stats provides the counting, distribution, and table-rendering
// helpers shared by the simulator and the experiment harness.
//
// The simulator hot paths use plain struct fields for their own counters;
// this package is for the cross-cutting pieces: named counter sets that
// experiments can diff, access-distribution summaries (the stacked bars
// of the paper's Figures 4, 5, and 7), and aligned text/CSV tables (the
// paper's Tables 2-4 and per-figure series).
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a named set of monotonically increasing event counts.
// The zero value is ready to use.
type Counters struct {
	m map[string]int64
}

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
}

// Inc increments counter name by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Set overwrites counter name with value (for derived gauges).
func (c *Counters) Set(name string, value int64) {
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] = value
}

// Get returns the current value of counter name (0 if never touched).
func (c *Counters) Get(name string) int64 { return c.m[name] }

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the counters one per line, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, n := range c.Names() {
		fmt.Fprintf(&b, "%-32s %12d\n", n, c.m[n])
	}
	return b.String()
}

// Percent formats a fraction as "NN.N%".
func Percent(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// Frac returns a/b as a float, or 0 when b is 0.
func Frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Package vis renders the paper's two figure styles as plain-text
// charts: stacked horizontal bars for access distributions (Figures 4,
// 5, 7) and grouped horizontal bars for relative performance and energy
// (Figures 6, 8, 9, 10, 11). The experiment drivers attach a chart to
// each figure; cmd/experiments prints it alongside the data table.
package vis

import (
	"fmt"
	"io"
	"strings"
)

// Chart is anything that can render itself as text.
type Chart interface {
	Render(w io.Writer) error
}

// segmentRunes fills stacked-bar segments in order; the final segment
// (misses, in the paper's figures) uses the darkest fill.
var segmentRunes = []byte{'#', '=', '+', '-', ':', '.', '~', '%'}

// StackedChart draws one stacked bar per row, each split into the same
// ordered segments (e.g. d-group 1..4 hits, then misses).
type StackedChart struct {
	Title    string
	Segments []string // legend, in stacking order
	Width    int      // bar width in characters (default 50)
	rows     []stackedRow
}

type stackedRow struct {
	label string
	frac  []float64
}

// NewStackedChart creates a chart with the given legend.
func NewStackedChart(title string, segments ...string) *StackedChart {
	return &StackedChart{Title: title, Segments: append([]string(nil), segments...)}
}

// AddRow appends one bar. fracs must have one entry per segment; values
// are clamped to [0, 1] and the bar is proportional to their sum.
func (c *StackedChart) AddRow(label string, fracs ...float64) {
	if len(fracs) != len(c.Segments) {
		panic(fmt.Sprintf("vis: row %q has %d segments, chart has %d",
			label, len(fracs), len(c.Segments)))
	}
	c.rows = append(c.rows, stackedRow{label: label, frac: append([]float64(nil), fracs...)})
}

// Render implements Chart.
func (c *StackedChart) Render(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	labelW := 10
	for _, r := range c.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	// Legend.
	b.WriteString(strings.Repeat(" ", labelW+2))
	for i, s := range c.Segments {
		fmt.Fprintf(&b, "[%c] %s  ", segmentRunes[i%len(segmentRunes)], s)
	}
	b.WriteByte('\n')
	for _, r := range c.rows {
		fmt.Fprintf(&b, "%-*s  ", labelW, r.label)
		drawn := 0
		total := 0.0
		for i, f := range r.frac {
			if !(f >= 0) { // negative or NaN
				f = 0
			}
			if f > 1 {
				f = 1
			}
			total += f
			n := int(f*float64(width) + 0.5)
			if drawn+n > width {
				n = width - drawn
			}
			b.WriteString(strings.Repeat(string(segmentRunes[i%len(segmentRunes)]), n))
			drawn += n
		}
		fmt.Fprintf(&b, "%s %5.1f%%\n", strings.Repeat(" ", width-drawn), total*100)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart draws one horizontal bar per row against a shared scale,
// marking a reference value (e.g. the base case at 1.0).
type BarChart struct {
	Title     string
	Unit      string
	Width     int     // bar width in characters (default 50)
	Reference float64 // draw a marker at this value; 0 disables
	rows      []barRow
}

type barRow struct {
	label string
	value float64
}

// NewBarChart creates a bar chart.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit}
}

// AddRow appends one bar.
func (c *BarChart) AddRow(label string, value float64) {
	c.rows = append(c.rows, barRow{label: label, value: value})
}

// Render implements Chart.
func (c *BarChart) Render(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	labelW := 10
	maxV := c.Reference
	for _, r := range c.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
		if r.value > maxV {
			maxV = r.value
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	refCol := -1
	if c.Reference > 0 {
		refCol = int(c.Reference / maxV * float64(width))
		if refCol >= width {
			refCol = width - 1
		}
	}
	for _, r := range c.rows {
		// Clamp before converting: a negative or NaN value draws no bar.
		n, f := 0, r.value/maxV*float64(width)
		if f >= float64(width) {
			n = width
		} else if f > 0 {
			n = int(f)
		}
		bar := []byte(strings.Repeat("#", n) + strings.Repeat(" ", width-n))
		if refCol >= 0 {
			if refCol < n {
				bar[refCol] = '|'
			} else {
				bar[refCol] = '.'
			}
		}
		fmt.Fprintf(&b, "%-*s  %s %.3f%s\n", labelW, r.label, bar, r.value, c.Unit)
	}
	if refCol >= 0 {
		fmt.Fprintf(&b, "%-*s  %s marks %.3f%s\n", labelW, "", strings.Repeat(" ", refCol)+"^", c.Reference, c.Unit)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

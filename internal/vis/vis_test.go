package vis

import (
	"math"
	"strings"
	"testing"
)

func TestStackedChartRender(t *testing.T) {
	c := NewStackedChart("Distribution", "g1", "g2", "miss")
	c.AddRow("applu", 0.6, 0.3, 0.1)
	c.AddRow("mcf", 0.4, 0.4, 0.2)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Distribution", "applu", "mcf", "[#] g1", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestStackedChartProportions(t *testing.T) {
	c := NewStackedChart("", "a", "b")
	c.Width = 10
	c.AddRow("x", 0.5, 0.5)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	row := lines[len(lines)-1]
	if !strings.Contains(row, "#####=====") {
		t.Fatalf("50/50 split not rendered: %q", row)
	}
}

func TestStackedChartClampsOverflow(t *testing.T) {
	c := NewStackedChart("", "a", "b")
	c.Width = 10
	c.AddRow("x", 0.9, 0.9) // overfull row must not exceed the bar width
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	row := lines[len(lines)-1]
	bar := row[strings.Index(row, "#"):]
	fill := strings.TrimRight(strings.Split(bar, " ")[0], " ")
	if len(fill) > 10 {
		t.Fatalf("bar overflows width: %q", row)
	}
}

func TestStackedChartRowMismatchPanics(t *testing.T) {
	c := NewStackedChart("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row must panic")
		}
	}()
	c.AddRow("x", 0.5)
}

func TestStackedChartNegativeClamped(t *testing.T) {
	c := NewStackedChart("", "a")
	c.AddRow("x", -0.5)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	row := lines[len(lines)-1] // skip the legend, which also contains '#'
	if strings.Contains(row, "#") {
		t.Fatalf("negative fraction must render empty: %q", row)
	}
}

func TestBarChartRender(t *testing.T) {
	c := NewBarChart("Performance relative to base", "x")
	c.Reference = 1.0
	c.AddRow("dnuca", 1.04)
	c.AddRow("nurapid", 1.06)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Performance", "dnuca", "1.040x", "1.060x", "marks 1.000x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBarChartScaling(t *testing.T) {
	c := NewBarChart("", "")
	c.Width = 10
	c.AddRow("half", 0.5)
	c.AddRow("full", 1.0)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if !strings.Contains(lines[0], "#####     ") {
		t.Fatalf("half bar wrong: %q", lines[0])
	}
	if !strings.Contains(lines[1], "##########") {
		t.Fatalf("full bar wrong: %q", lines[1])
	}
}

func TestBarChartEmptyAndZeroMax(t *testing.T) {
	c := NewBarChart("t", "")
	c.AddRow("zero", 0)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "zero") {
		t.Fatal("zero row must still render")
	}
}

func TestBarChartNegativeAndNaNClamped(t *testing.T) {
	c := NewBarChart("", "")
	c.Width = 10
	c.Reference = 1.0
	c.AddRow("neg", -0.5)
	c.AddRow("nan", math.NaN())
	c.AddRow("one", 1.0)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")
	for i, want := range []string{
		"neg                  . -0.500",
		"nan                  . NaN",
		"one         #########| 1.000",
	} {
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}

func TestStackedChartNaNClamped(t *testing.T) {
	c := NewStackedChart("", "a", "b")
	c.Width = 10
	c.AddRow("x", math.NaN(), 0.5)
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if row := lines[len(lines)-1]; !strings.Contains(row, "=====       50.0%") {
		t.Fatalf("NaN segment must render empty: %q", row)
	}
}

var _ Chart = (*StackedChart)(nil)
var _ Chart = (*BarChart)(nil)

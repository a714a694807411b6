package stats

import (
	"testing"
)

func TestCountersZeroValue(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 {
		t.Fatal("untouched counter must read 0")
	}
	c.Inc("x")
	c.Add("x", 4)
	if c.Get("x") != 5 {
		t.Fatalf("x = %d, want 5", c.Get("x"))
	}
}

// TestCountersSet checks that Set overwrites rather than accumulates,
// and works on the zero value.
func TestCountersSet(t *testing.T) {
	var c Counters
	c.Set("gauge", 7)
	c.Add("gauge", 3)
	c.Set("gauge", 2)
	if c.Get("gauge") != 2 {
		t.Fatalf("gauge = %d, want 2", c.Get("gauge"))
	}
}

func TestCountersNamesSorted(t *testing.T) {
	var c Counters
	c.Inc("b")
	c.Inc("a")
	c.Inc("c")
	names := c.Names()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Fatalf("Names() = %v, want [a b c]", names)
	}
}

// TestCountersString pins the exact rendering (name left-aligned to 32,
// value right-aligned to 12, sorted by name): callers diff this output,
// so the format is part of the contract.
func TestCountersString(t *testing.T) {
	var c Counters
	c.Add("beta", 3)
	c.Add("alpha", 12)
	want := "alpha                                      12\n" +
		"beta                                        3\n"
	if got := c.String(); got != want {
		t.Fatalf("String() =\n%q\nwant\n%q", got, want)
	}
	var empty Counters
	if got := empty.String(); got != "" {
		t.Fatalf("empty String() = %q, want empty", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.8642); got != "86.4%" {
		t.Fatalf("Percent = %q, want 86.4%%", got)
	}
}

func TestFrac(t *testing.T) {
	if Frac(1, 2) != 0.5 || Frac(1, 0) != 0 {
		t.Fatal("Frac misbehaves")
	}
}

package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/floorplan"
)

func runLayout(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}

// planLatencies parses the latency column of each d-group row of one
// plan's table.
func planLatencies(t *testing.T, section string) []int64 {
	t.Helper()
	var lats []int64
	for _, line := range strings.Split(section, "\n") {
		f := strings.Fields(line)
		if len(f) != 6 || strings.Trim(f[0], "0123456789") != "" {
			continue
		}
		var lat int64
		if _, err := fmt.Sscan(f[4], &lat); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		lats = append(lats, lat)
	}
	return lats
}

// TestDefaultShowsEveryPlan checks that the default output has one
// table per d-group count, each with cacti.Default()'s latencies, and
// that -groups 4 prints exactly the default's 4-group table.
func TestDefaultShowsEveryPlan(t *testing.T) {
	m := cacti.Default()
	sections := strings.Split(strings.TrimSuffix(runLayout(t), "\n"), "\n\n")
	if len(sections) != 3 {
		t.Fatalf("default output has %d sections, want 3", len(sections))
	}
	for i, n := range []int{2, 4, 8} {
		s := sections[i]
		title := fmt.Sprintf("NuRAPID 8 MB, %d d-groups of %d MB", n, 8/n)
		if !strings.HasPrefix(s, title) {
			t.Errorf("section %d starts %q, want %q", i, strings.SplitN(s, "\n", 2)[0], title)
		}
		want := m.DGroupLatencies(floorplan.NewLShapedPlan(8, n))
		if got := planLatencies(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%d d-groups: latencies %v, want %v", n, got, want)
		}
		if tag := fmt.Sprintf("tag array adds %d cycles", m.TagCycles); !strings.Contains(s, tag) {
			t.Errorf("%d d-groups: footnote lacks %q", n, tag)
		}
	}
	if got, want := runLayout(t, "-groups", "4"), sections[1]+"\n"; got != want {
		t.Errorf("-groups 4 output\n%s\nwant the default's 4-group table\n%s", got, want)
	}
}

// TestNUCAGrid checks the -nuca bank grid against cacti.Default().
func TestNUCAGrid(t *testing.T) {
	m := cacti.Default()
	grid := floorplan.NewNUCAGrid(8, 64)
	lats := m.NUCABankLatencies(grid)
	out := runLayout(t, "-nuca")
	var rows strings.Builder
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			fmt.Fprintf(&rows, "%3d", lats[r*grid.Cols+c])
		}
		rows.WriteString("\n")
	}
	if !strings.Contains(out, "per-bank latency (cycles):\n"+rows.String()) {
		t.Errorf("-nuca grid does not match cacti.Default():\n%s", out)
	}
	order := grid.BanksByDistance()
	near := fmt.Sprintf("nearest bank: #%d at %.2f units, %d cycles", order[0], grid.BankRoute(order[0]), lats[order[0]])
	if !strings.Contains(out, near) {
		t.Errorf("-nuca output lacks %q", near)
	}
}

// TestInvalidGroupsExit2 checks that a d-group count the floorplan
// rejects fails with the floorplan's message and exit status 2, and
// prints nothing.
func TestInvalidGroupsExit2(t *testing.T) {
	for _, n := range []string{"3", "-1"} {
		var out bytes.Buffer
		err := run(&out, []string{"-groups", n})
		want := "invalid configuration: floorplan: invalid plan 8 MB / " + n + " groups"
		if err == nil || err.Error() != want || exitCode(err) != 2 {
			t.Errorf("-groups %s: error %v (exit %d), want %q (exit 2)", n, err, exitCode(err), want)
		}
		if out.Len() != 0 {
			t.Errorf("-groups %s printed %q", n, out.String())
		}
	}
}

// Command layout inspects the physical models behind the simulators: the
// L-shaped NuRAPID floorplan, the D-NUCA bank grid, and the calibrated
// latency/energy tables they produce (the paper's Tables 2 and 4).
//
// Usage:
//
//	layout                 # NuRAPID floorplans for 2, 4, and 8 d-groups
//	layout -groups 4       # one configuration in detail
//	layout -nuca           # the D-NUCA bank grid
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nurapid/internal/cacti"
	"nurapid/internal/floorplan"
	"nurapid/internal/stats"
)

// errInvalidConfig marks a d-group count the floorplan rejects.
var errInvalidConfig = errors.New("invalid configuration")

func main() {
	err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(exitCode(err))
}

// exitCode is the process status for run's error: 2 for an invalid
// configuration, as for a bad flag, and 1 for a failed write.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errInvalidConfig):
		return 2
	}
	return 1
}

// run parses args and writes the requested layout to w. A bad flag or
// -h exits from the flag set, with the usage on stderr.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	var (
		groups = fs.Int("groups", 0, "show one d-group count in detail (2, 4, or 8)")
		nuca   = fs.Bool("nuca", false, "show the D-NUCA bank grid instead")
	)
	fs.Parse(args)
	m := cacti.Default()

	if *nuca {
		showNUCA(w, m)
		return nil
	}
	if *groups != 0 {
		return showPlan(w, m, *groups)
	}
	for _, n := range []int{2, 4, 8} {
		if err := showPlan(w, m, n); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func showPlan(w io.Writer, m *cacti.Model, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errInvalidConfig, r)
		}
	}()
	plan := floorplan.NewLShapedPlan(8, n)
	lats := m.DGroupLatencies(plan)
	energies := m.DGroupEnergies(plan)
	t := stats.NewTable(fmt.Sprintf("NuRAPID 8 MB, %d d-groups of %.0f MB (L-shaped floorplan)", n, plan.GroupMB()),
		"d-group", "arm", "offset (units)", "route (units)", "latency (cyc)", "energy (nJ)")
	for i, g := range plan.Groups {
		t.AddRow(fmt.Sprintf("%d", i), g.Arm.String(),
			fmt.Sprintf("%.2f", g.Offset), fmt.Sprintf("%.2f", g.Route),
			fmt.Sprintf("%d", lats[i]), energies[i])
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "(1 unit = the side of a 1-MB array; tag array adds %d cycles to every access)\n", m.TagCycles)
	return nil
}

func showNUCA(w io.Writer, m *cacti.Model) {
	grid := floorplan.NewNUCAGrid(8, 64)
	lats := m.NUCABankLatencies(grid)
	energies := m.NUCABankEnergies(grid)
	fmt.Fprintf(w, "D-NUCA 8 MB: %d x %d grid of 64-KB banks (core centered below row 0)\n\n",
		grid.Cols, grid.Rows)
	fmt.Fprintln(w, "per-bank latency (cycles):")
	for r := 0; r < grid.Rows; r++ {
		for c := 0; c < grid.Cols; c++ {
			fmt.Fprintf(w, "%3d", lats[r*grid.Cols+c])
		}
		fmt.Fprintln(w)
	}
	order := grid.BanksByDistance()
	near, far := order[0], order[len(order)-1]
	fmt.Fprintf(w, "\nnearest bank: #%d at %.2f units, %d cycles, %.2f nJ\n",
		near, grid.BankRoute(near), lats[near], energies[near])
	fmt.Fprintf(w, "farthest bank: #%d at %.2f units, %d cycles, %.2f nJ\n",
		far, grid.BankRoute(far), lats[far], energies[far])
	avg := 0.0
	for _, e := range energies {
		avg += e
	}
	fmt.Fprintf(w, "average bank energy: %.2f nJ (cf. Table 2)\n", avg/float64(len(energies)))
}

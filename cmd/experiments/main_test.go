package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"nurapid/internal/cmp"
	"nurapid/internal/sim"
)

// goldenExperiments are the runs of the small-run golden, in its order:
// each experiment id with the -cores and -sharing it renders at. `make
// golden` runs the same list. The CMP entries cover both sharing
// patterns and an odd core count, where the lockstep rank rotation does
// not divide evenly.
var goldenExperiments = []struct {
	id      string
	cores   int
	sharing cmp.Sharing
}{
	{"all", 2, cmp.Shared},
	{"sweep-capacity", 2, cmp.Shared},
	{"sweep-block", 2, cmp.Shared},
	{"sweep-tech", 2, cmp.Shared},
	{"predictor", 2, cmp.Shared},
	{"cmp", 2, cmp.Shared},
	{"cmp", 2, cmp.Private},
	{"cmp", 3, cmp.Shared},
}

const goldenFile = "testdata/golden-n50000-seed1.txt"

// TestSmallRunGolden pins every paper output to committed bytes: it
// renders goldenExperiments at 50 000 instructions, seed 1, in-process
// on a 2-worker Runner, and compares the text with the file `make golden`
// writes from the command itself. The run is warm-up dominated, so the
// golden pins the code's behaviour, not the paper's claims
// (experiments_output.txt is the claims reference). A deliberate
// re-baseline regenerates it and shows as a readable diff.
func TestSmallRunGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, g := range goldenExperiments {
		r := sim.NewRunner(sim.WithInstructions(50_000), sim.WithSeed(1), sim.WithWorkers(2),
			sim.WithCores(g.cores), sim.WithSharing(g.sharing))
		exps, err := experiments(r, g.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := render(&got, exps, false); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	var diff strings.Builder
	for j := i; j < i+8 && (j < len(g) || j < len(w)); j++ {
		if j < len(g) && j < len(w) && g[j] == w[j] {
			diff.WriteString("\n  " + w[j])
			continue
		}
		if j < len(w) {
			diff.WriteString("\n- " + w[j])
		}
		if j < len(g) {
			diff.WriteString("\n+ " + g[j])
		}
	}
	t.Fatalf("render differs from %s (%d lines, got %d) from line %d (- golden, + render):%s\n"+
		"after a deliberate re-baseline, regenerate it with `make golden`", goldenFile, len(w), len(g), i+1, diff.String())
}

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		n       int64
		cores   int
		sharing string
		want    string // error text; "" for none
	}{
		{1, 1, "shared", ""},
		{2_000_000, 4, "private", ""},
		{0, 2, "shared", "-n must be at least 1, got 0"},
		{-1, 2, "shared", "-n must be at least 1, got -1"},
		{50_000, 0, "shared", "-cores must be at least 1, got 0"},
		{50_000, -3, "shared", "-cores must be at least 1, got -3"},
		{50_000, 2, "bogus", "cmp: unknown sharing pattern"},
	} {
		_, err := checkFlags(c.n, c.cores, c.sharing)
		if (err == nil) != (c.want == "") || (err != nil && !strings.HasPrefix(err.Error(), c.want)) {
			t.Errorf("checkFlags(%d, %d, %q) = %v, want %q", c.n, c.cores, c.sharing, err, c.want)
		}
	}
}

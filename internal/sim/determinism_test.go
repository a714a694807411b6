package sim

import (
	"strings"
	"testing"
)

// renderExperiments runs a run-bearing subset of the paper's experiments
// on a fresh Runner and renders each in both text and CSV form, exactly
// as cmd/experiments would print them.
func renderExperiments(t *testing.T, seed uint64) string {
	t.Helper()
	r := smallRunner(t, WithSeed(seed))
	var b strings.Builder
	for _, e := range []*Experiment{r.Table4(), r.Fig4(), r.Fig7(), r.Fig11()} {
		if err := e.Render(&b, false); err != nil {
			t.Fatal(err)
		}
		if err := e.Render(&b, true); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestTableFigureOutputSeedSensitive guards the seed: a different seed
// must actually change the workload, not just the label. Same-seed
// reproducibility is pinned by TestParallelAllMatchesSerial (every
// experiment rendered twice, text and CSV) and by cmd/experiments'
// TestSmallRunGolden (the committed render).
func TestTableFigureOutputSeedSensitive(t *testing.T) {
	a := renderExperiments(t, 7)
	b := renderExperiments(t, 8)
	if a == b {
		t.Fatal("different seeds rendered identical bytes; seed is not reaching the workload")
	}
}

func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 30
			if lo < 0 {
				lo = 0
			}
			hi := i + 30
			if hi > n {
				hi = n
			}
			return a[lo:hi]
		}
	}
	return "(one output is a prefix of the other)"
}

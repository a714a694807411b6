package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestPrefetchedPlanCoversBuild pins every experiment's declared run
// set against its build: after prefetching an experiment's plan on a
// serial Runner, building it must start no further simulation. An
// organization a build reads but its plan omits would start a run
// here — and, in All, fall outside the campaign's union prefetch.
func TestPrefetchedPlanCoversBuild(t *testing.T) {
	for _, e := range experiments {
		starts := 0
		r := smallRunner(t, WithInstructions(30_000), WithWorkers(1),
			WithObserver(ObserverFunc(func(ev RunEvent) {
				if ev.Kind == RunStart {
					starts++
				}
			})))
		p := e.plan(r)
		r.prefetch(p)
		if prefetched := len(p.apps) * len(p.orgs); starts != prefetched {
			t.Errorf("%s: prefetch started %d runs, want %d (apps x orgs, no duplicates)", e.id, starts, prefetched)
		}
		before := starts
		if x := p.build(); x == nil || x.ID != e.id {
			t.Fatalf("%s: build returned %+v", e.id, x)
		}
		if starts != before {
			t.Errorf("%s: build started %d runs beyond its plan", e.id, starts-before)
		}
	}
}

// TestExperimentIDsFromTable pins ByID and its error to the table.
func TestExperimentIDsFromTable(t *testing.T) {
	ids := ExperimentIDs()
	for _, want := range []string{"table1", "fig11", "lru", "ablation", "predictor", "sweep-tech", "cmp"} {
		if !slices.Contains(ids, want) {
			t.Errorf("ExperimentIDs() = %v, missing %q", ids, want)
		}
	}
	_, err := smallRunner(t).ByID("nonsense")
	if err == nil || !strings.Contains(err.Error(), strings.Join(ids, ", ")) {
		t.Fatalf("ByID(nonsense) error %v does not list the table's ids", err)
	}
}

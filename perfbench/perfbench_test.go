package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// testScale shrinks every run so the tests stay fast; no goldens exist
// at this size, so the tests compare the two paths with each other.
const testScale = 0.02

// TestTracedMatchesUntraced checks that every workload's traced
// decomposition produces the same bytes as the public-API path it
// measures: the rendered experiment, or every replay fingerprint.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			run, err := newRun(name, 3, testScale)
			if err != nil {
				t.Fatal(err)
			}
			tr, un := run.iterate(traced), run.iterate(untraced)
			if !bytes.Equal(tr.render, un.render) {
				t.Errorf("traced render differs:\n%s\nuntraced:\n%s", tr.render, un.render)
			}
			if len(un.hashes) != run.jobs() && len(un.hashes) != 1 {
				t.Errorf("untraced produced %d hashes", len(un.hashes))
			}
			for k, h := range un.hashes {
				if tr.hashes[k] != h {
					t.Errorf("%s: traced %s, untraced %s", k, tr.hashes[k], h)
				}
			}
			if tr.jobs != run.jobs() || un.jobs != run.jobs() {
				t.Errorf("jobs: traced %d, untraced %d, want %d", tr.jobs, un.jobs, run.jobs())
			}
		})
	}
}

// TestGoldensAtSeedOne checks the committed goldens at full size.
func TestGoldensAtSeedOne(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		run, err := newRun(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		run.iterate(traced) // replay-l2 learns its trace lengths here
		if bad := g.mismatches(name, 1, run.iterate(untraced)); bad != 0 {
			t.Errorf("%s: %d jobs differ from the goldens", name, bad)
		}
	}
}

// countProbe counts events.
type countProbe struct{ n int }

func (c *countProbe) Emit(obs.Event) { c.n++ }

// TestTimedL2Forwards checks that the L2 wrapper passes probes, the
// latency profile and the batched replay loop through to the
// organization, and leaves results unchanged.
func TestTimedL2Forwards(t *testing.T) {
	m := cacti.Default()
	app, _ := workload.ByName(benchApps[0])
	reqs := sim.ExtractTrace(app, 1, 5000)
	mk := func() (*nurapid.Cache, *timedL2) {
		c := nurapid.MustNew(nurapid.DefaultConfig(), m, memsys.NewMemory(128))
		return c, &timedL2{inner: c, acc: newJobAcc(), tr: &tracer{}, layer: "nurapid", parent: -1}
	}
	plain, _ := mk()
	inner, w := mk()
	var pp, wp countProbe
	plain.SetProbe(&pp)
	w.SetProbe(&wp)
	if lp := w.LatencyProfile(); !lp.Valid() || !reflect.DeepEqual(lp, inner.LatencyProfile()) {
		t.Error("latency profile not forwarded")
	}
	endPlain := memsys.AccessMany(plain, 0, reqs, nil)
	endWrapped := memsys.AccessMany(w, 0, reqs, nil)
	if endPlain != endWrapped {
		t.Errorf("final clock %d through the wrapper, %d without", endWrapped, endPlain)
	}
	if pp.n == 0 || pp.n != wp.n {
		t.Errorf("probe saw %d events through the wrapper, %d without", wp.n, pp.n)
	}
	if len(w.tr.spans) != 1 || w.tr.spans[0].Calls != int64(len(reqs)) {
		t.Errorf("AccessMany recorded %+v, want one span of %d calls", w.tr.spans, len(reqs))
	}
	if r := w.Access(memsys.Req{Now: endWrapped, Addr: reqs[0].Addr}); w.acc.l2.calls != 1 || !r.Hit {
		t.Errorf("Access: calls %d, hit %v", w.acc.l2.calls, r.Hit)
	}
}

// TestOutputMatchesBenchmarkJSON runs each mode briefly and checks that
// the printed metrics are exactly those BENCHMARK.json declares, with
// the declared units, and that the traced ledger reconciles.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range spec.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, not workloadNames[%d]", i, w.Name, i)
		}
	}
	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		res, err := runBench("cmp4-shared-probed", 2, 0, trace, testScale, goldens{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.metrics) != len(want) {
			t.Fatalf("trace=%v: %d metrics, BENCHMARK.json declares %d", trace, len(res.metrics), len(want))
		}
		for i, m := range res.metrics {
			if m.name != want[i].Name || m.unit != want[i].Unit {
				t.Errorf("trace=%v metric %d: %s [%s], declared %s [%s]", trace, i, m.name, m.unit, want[i].Name, want[i].Unit)
			}
		}
		if trace && !res.reconciled {
			t.Errorf("traced ledger does not reconcile: %v", res.notes)
		}
	}
}

package sim

import "testing"

func TestCapacitySweep(t *testing.T) {
	r := smallRunner(t)
	e := r.CapacitySweep()
	if e.ID != "sweep-capacity" {
		t.Fatalf("id = %q", e.ID)
	}
	if e.Table.NumRows() != len(r.apps)+1 {
		t.Fatalf("rows = %d", e.Table.NumRows())
	}
	for _, k := range []string{"rel_4mb", "rel_8mb", "rel_16mb"} {
		if e.Metrics[k] <= 0 {
			t.Fatalf("metric %s missing", k)
		}
	}
	// A 16-MB NuRAPID cannot miss more than a 4-MB one; with our
	// footprints it should not perform worse on average.
	if e.Metrics["rel_16mb"] < e.Metrics["rel_4mb"]-0.02 {
		t.Fatalf("16 MB (%.3f) materially below 4 MB (%.3f)",
			e.Metrics["rel_16mb"], e.Metrics["rel_4mb"])
	}
}

func TestBlockSweep(t *testing.T) {
	r := smallRunner(t)
	e := r.BlockSweep()
	if e.ID != "sweep-block" {
		t.Fatalf("id = %q", e.ID)
	}
	if e.Table.NumRows() != 3*len(r.apps)+3 {
		t.Fatalf("rows = %d", e.Table.NumRows())
	}
	for _, k := range []string{"ipc_64", "ipc_128", "ipc_256"} {
		if e.Metrics[k] <= 0 {
			t.Fatalf("metric %s missing", k)
		}
	}
	// Bigger blocks exploit spatial locality: fewer misses per access.
	if e.Metrics["miss_256"] > e.Metrics["miss_64"] {
		t.Fatalf("256-B miss rate (%.3f) above 64-B (%.3f)",
			e.Metrics["miss_256"], e.Metrics["miss_64"])
	}
}

func TestSweepsViaByID(t *testing.T) {
	r := smallRunner(t)
	for _, id := range []string{"sweep-capacity", "sweep-block"} {
		e, err := r.ByID(id)
		if err != nil || e.ID != id {
			t.Fatalf("ByID(%s): %v %v", id, e, err)
		}
	}
}

func TestFigureChartsPresent(t *testing.T) {
	r := smallRunner(t)
	for _, e := range []*Experiment{r.Fig4(), r.Fig5(), r.Fig6(), r.Fig7(), r.Fig8(), r.Fig9(), r.Fig10(), r.Fig11()} {
		if e.Chart == nil {
			t.Errorf("figure %s has no chart", e.ID)
		}
	}
}

func TestTechSweepAdvantageGrowsWithWireDelay(t *testing.T) {
	r := smallRunner(t)
	e := r.TechSweep()
	if e.ID != "sweep-tech" {
		t.Fatalf("id = %q", e.ID)
	}
	v1 := e.Metrics["vs_dnuca_1.0x"]
	v2 := e.Metrics["vs_dnuca_2.0x"]
	if v1 <= 0 || v2 <= 0 {
		t.Fatal("sweep metrics missing")
	}
	// The paper's motivation: as wires dominate, NuRAPID's few large
	// d-groups beat D-NUCA's bank ladder by more.
	if v2 < v1 {
		t.Fatalf("NuRAPID advantage must not shrink with wire delay: %.3f -> %.3f", v1, v2)
	}
}

func TestScaledModelPanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	smallRunner(t).model.Scaled(0)
}

package sim

import (
	"strings"
	"testing"

	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/workload"
)

// smallRunner trims the roster and run length so experiment smoke tests
// stay fast; behaviour (not magnitudes) is asserted.
func smallRunner(t *testing.T, opts ...Option) *Runner {
	t.Helper()
	apps := []workload.App{}
	for _, name := range []string{"applu", "mcf", "gzip"} {
		a, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("app %s missing", name)
		}
		apps = append(apps, a)
	}
	base := []Option{WithInstructions(120_000), WithSeed(1), WithApps(apps...)}
	return NewRunner(append(base, opts...)...)
}

func TestRunMemoizes(t *testing.T) {
	r := smallRunner(t)
	app := r.apps[0]
	a := r.Run(app, Base())
	b := r.Run(app, Base())
	if a != b {
		t.Fatal("identical runs must be memoized")
	}
}

func TestRunDeterminism(t *testing.T) {
	r1 := smallRunner(t)
	r2 := smallRunner(t)
	a := r1.Run(r1.apps[0], NuRAPID(nurapid.DefaultConfig()))
	b := r2.Run(r2.apps[0], NuRAPID(nurapid.DefaultConfig()))
	if a.CPU.Cycles != b.CPU.Cycles || a.L2EnergyNJ != b.L2EnergyNJ {
		t.Fatalf("runs not deterministic: %d vs %d cycles", a.CPU.Cycles, b.CPU.Cycles)
	}
}

func TestRelPerfBaseIsOne(t *testing.T) {
	r := smallRunner(t)
	if p := r.RelPerf(r.apps[0], Base()); p != 1.0 {
		t.Fatalf("RelPerf(base) = %v, want 1", p)
	}
}

func TestRunResultPopulated(t *testing.T) {
	r := smallRunner(t)
	res := r.Run(r.apps[0], NuRAPID(nurapid.DefaultConfig()))
	if res.CPU.Instructions != 120_000 {
		t.Fatalf("instructions = %d", res.CPU.Instructions)
	}
	if res.L2Dist == nil || res.L2Dist.Total() == 0 {
		t.Fatal("distribution must be populated")
	}
	if res.L2GroupAccesses == nil {
		t.Fatal("NuRAPID runs must expose group accesses")
	}
	if res.Energy.TotalNJ() <= 0 || res.ED <= 0 {
		t.Fatal("energy accounting must be populated")
	}
	if res.L2Ctrs.Get("accesses") != res.CPU.L2Accesses {
		t.Fatal("organization and CPU disagree on L2 accesses")
	}
}

func TestOrganizationKeys(t *testing.T) {
	if Base().Key != "base" || Ideal().Key != "ideal" {
		t.Fatal("builtin keys wrong")
	}
	cfg := nurapid.DefaultConfig()
	if got := NuRAPID(cfg).Key; got != "nurapid-4g-next-fastest-random" {
		t.Fatalf("NuRAPID key = %q", got)
	}
	cfg.Placement = nurapid.SetAssociative
	if !strings.HasSuffix(NuRAPID(cfg).Key, "-sa") {
		t.Fatal("set-associative key must be distinct")
	}
	cfg = nurapid.DefaultConfig()
	cfg.RestrictFrames = 256
	if !strings.HasSuffix(NuRAPID(cfg).Key, "-r256") {
		t.Fatal("restricted key must be distinct")
	}
	if DNUCA(nuca.DefaultConfig()).Key != "dnuca-ss-performance" {
		t.Fatal("DNUCA key wrong")
	}
}

func TestTable1(t *testing.T) {
	e := smallRunner(t).Table1()
	if e.ID != "table1" || e.Table.NumRows() < 10 {
		t.Fatalf("table1: id=%q rows=%d", e.ID, e.Table.NumRows())
	}
}

func TestTable2MatchesAnchors(t *testing.T) {
	e := smallRunner(t).Table2()
	if e.Table.NumRows() != 9 {
		t.Fatalf("table2 rows = %d", e.Table.NumRows())
	}
	if v := e.Metrics["closest_2mb_nj"]; v < 0.40 || v > 0.45 {
		t.Fatalf("closest 2MB energy %v, want ~0.42", v)
	}
	if v := e.Metrics["closest_nuca_nj"]; v != 0.18 {
		t.Fatalf("closest NUCA energy %v, want 0.18", v)
	}
}

func TestTable3ReportsAllApps(t *testing.T) {
	r := smallRunner(t)
	e := r.Table3()
	if e.Table.NumRows() != len(r.apps) {
		t.Fatalf("table3 rows = %d, want %d", e.Table.NumRows(), len(r.apps))
	}
	for _, app := range r.apps {
		if e.Metrics["apki_"+app.Name] <= 0 {
			t.Fatalf("APKI for %s missing", app.Name)
		}
	}
}

func TestTable4MatchesAnchors(t *testing.T) {
	e := smallRunner(t).Table4()
	if e.Table.NumRows() != 8 {
		t.Fatalf("table4 rows = %d", e.Table.NumRows())
	}
	if e.Metrics["fastest_4g"] != 14 || e.Metrics["fastest_8g"] != 12 || e.Metrics["fastest_2g"] != 19 {
		t.Fatalf("fastest latencies wrong: %v", e.Metrics)
	}
}

func TestFig4Shape(t *testing.T) {
	r := smallRunner(t)
	e := r.Fig4()
	if e.Table.NumRows() != len(r.apps)+1 {
		t.Fatalf("fig4 rows = %d", e.Table.NumRows())
	}
	// Distance-associative placement must serve at least as many
	// accesses from the fastest d-group as set-associative.
	if e.Metrics["da_group1_frac"] < e.Metrics["sa_group1_frac"] {
		t.Fatalf("DA g1 %.3f must be >= SA g1 %.3f",
			e.Metrics["da_group1_frac"], e.Metrics["sa_group1_frac"])
	}
}

func TestFig5MissesPolicyIndependent(t *testing.T) {
	r := smallRunner(t)
	_ = r.Fig5()
	// The same app under the three policies must show identical misses.
	app := r.apps[0]
	orgs := []Organization{
		NuRAPID(nurapidCfg(4, nurapid.DemotionOnly, nurapid.RandomDistance)),
		NuRAPID(nurapidCfg(4, nurapid.NextFastest, nurapid.RandomDistance)),
		NuRAPID(nurapidCfg(4, nurapid.Fastest, nurapid.RandomDistance)),
	}
	var miss []int64
	for _, o := range orgs {
		miss = append(miss, r.Run(app, o).L2Ctrs.Get("misses"))
	}
	if miss[0] != miss[1] || miss[1] != miss[2] {
		t.Fatalf("miss counts differ across promotion policies: %v", miss)
	}
}

func TestFig6ContainsAverages(t *testing.T) {
	r := smallRunner(t)
	e := r.Fig6()
	found := false
	for i := 0; i < e.Table.NumRows(); i++ {
		if e.Table.Cell(i, 0) == "OVERALL AVG" {
			found = true
		}
	}
	if !found {
		t.Fatal("fig6 must include the overall average row")
	}
	if e.Metrics["rel_ideal"] <= 0 {
		t.Fatal("ideal metric missing")
	}
}

func TestLRUStudyMetrics(t *testing.T) {
	e := smallRunner(t).LRUStudy()
	for _, k := range []string{
		"g1_demotion-only/random", "g1_demotion-only/lru",
		"g1_next-fastest/random", "g1_next-fastest/lru",
	} {
		if e.Metrics[k] <= 0 || e.Metrics[k] > 1 {
			t.Fatalf("metric %s = %v out of range", k, e.Metrics[k])
		}
	}
}

func TestFig7MoreGroupsFewerFirstGroupHits(t *testing.T) {
	e := smallRunner(t).Fig7()
	// Smaller d-groups hold less of the working set: first-group
	// fraction must not increase with the group count.
	if e.Metrics["g1_8groups"] > e.Metrics["g1_2groups"]+0.02 {
		t.Fatalf("8-group g1 %.3f should not exceed 2-group g1 %.3f",
			e.Metrics["g1_8groups"], e.Metrics["g1_2groups"])
	}
}

func TestFig8SwapRatio(t *testing.T) {
	e := smallRunner(t).Fig8()
	if e.Table.NumRows() == 0 {
		t.Fatal("fig8 table empty")
	}
	// Paper: the 8-d-group config incurs about 2x the promotion swaps of
	// the 4-d-group one. At smoke scale the fastest d-group may not fill
	// (no swaps at all); assert the direction only when swaps happened.
	if r := e.Metrics["swap_ratio_8v4"]; r > 0 && r <= 1.0 {
		t.Fatalf("8-group swaps must exceed 4-group swaps (ratio %.2f)", r)
	}
}

func TestFig9Metrics(t *testing.T) {
	e := smallRunner(t).Fig9()
	for _, k := range []string{"rel_dnuca", "rel_nurapid_4g", "rel_nurapid_8g"} {
		if e.Metrics[k] <= 0 {
			t.Fatalf("metric %s missing", k)
		}
	}
}

func TestFig10EnergyAdvantage(t *testing.T) {
	e := smallRunner(t).Fig10()
	// NuRAPID must use far less L2 energy and far fewer d-group accesses
	// than D-NUCA even at smoke-test scale.
	if e.Metrics["energy_ratio_nurapid_dnuca"] >= 0.8 {
		t.Fatalf("energy ratio %.3f, want well below 1", e.Metrics["energy_ratio_nurapid_dnuca"])
	}
	if e.Metrics["group_access_ratio"] >= 1.0 {
		t.Fatalf("group access ratio %.3f, want below 1", e.Metrics["group_access_ratio"])
	}
}

func TestFig11Metrics(t *testing.T) {
	e := smallRunner(t).Fig11()
	if e.Metrics["ed_nurapid"] <= 0 {
		t.Fatal("energy-delay metric missing")
	}
	// NuRAPID's energy-delay must beat D-NUCA's performance policy,
	// which burns bank energy on every multicast search.
	if e.Metrics["ed_nurapid"] >= e.Metrics["ed_dnuca_perf"] {
		t.Fatalf("NuRAPID ED %.3f must beat D-NUCA ss-perf %.3f",
			e.Metrics["ed_nurapid"], e.Metrics["ed_dnuca_perf"])
	}
}

func TestByID(t *testing.T) {
	r := smallRunner(t)
	if _, err := r.ByID("nonsense"); err == nil {
		t.Fatal("unknown id must error")
	}
	e, err := r.ByID("table4")
	if err != nil || e.ID != "table4" {
		t.Fatalf("ByID(table4): %v %v", e, err)
	}
}

func TestObserverSeesEachRunOnce(t *testing.T) {
	starts, finishes := 0, 0
	obs := ObserverFunc(func(e RunEvent) {
		switch e.Kind {
		case RunStart:
			starts++
		case RunFinish:
			finishes++
		}
	})
	r := smallRunner(t, WithObserver(obs))
	r.Run(r.apps[0], Base())
	r.Run(r.apps[0], Base()) // memoized: no second event pair
	if starts != 1 || finishes != 1 {
		t.Fatalf("events = %d starts, %d finishes, want 1 each", starts, finishes)
	}
}

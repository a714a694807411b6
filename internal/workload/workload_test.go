package workload

import (
	"testing"
)

func TestAppsRoster(t *testing.T) {
	apps := Apps()
	if len(apps) != 15 {
		t.Fatalf("roster has %d apps, want 15", len(apps))
	}
	high, low := 0, 0
	names := make(map[string]bool)
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
		if names[a.Name] {
			t.Errorf("duplicate app %s", a.Name)
		}
		names[a.Name] = true
		if a.Class == HighLoad {
			high++
		} else {
			low++
		}
	}
	if high != 12 || low != 3 {
		t.Fatalf("class split %d/%d, want 12/3", high, low)
	}
}

func TestByName(t *testing.T) {
	a, ok := ByName("mcf")
	if !ok || a.Name != "mcf" {
		t.Fatal("mcf must be found")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Fatal("unknown app must not be found")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	base, _ := ByName("gzip")
	bad := []func(*App){
		func(a *App) { a.Name = "" },
		func(a *App) { a.WorkingSetKB = 0 },
		func(a *App) { a.HotKB = a.WorkingSetKB + 1 },
		func(a *App) { a.CodeKB = 0 },
		func(a *App) { a.LoadFrac = 0.9 }, // mix sums >= 1
		func(a *App) { a.Mispredict = -0.1 },
	}
	for i, f := range bad {
		a := base
		f(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestKindAndClassStrings(t *testing.T) {
	if ALU.String() != "alu" || Load.String() != "load" || Store.String() != "store" ||
		Branch.String() != "branch" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind must render")
	}
	if HighLoad.String() != "high" || LowLoad.String() != "low" {
		t.Fatal("class strings wrong")
	}
}

// TestGeneratorDeterminism builds the second generator of an app after
// the first has drawn, so it reads the Zipf tables the first built
// (mathx shares them per exponent and size): the two streams must still
// be identical.
func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range []string{"applu", "mcf"} {
		app, _ := ByName(name)
		g1 := MustNewGenerator(app, 42)
		first := make([]Instr, 20000)
		for i := range first {
			first[i], _ = g1.Next()
		}
		g2 := MustNewGenerator(app, 42)
		for i, want := range first {
			if got, _ := g2.Next(); got != want {
				t.Fatalf("%s: streams diverged at instruction %d: %+v vs %+v", name, i, got, want)
			}
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	app, _ := ByName("applu")
	g1 := MustNewGenerator(app, 1)
	g2 := MustNewGenerator(app, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if a == b {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestGeneratorInstructionMix(t *testing.T) {
	app, _ := ByName("equake")
	g := MustNewGenerator(app, 3)
	const n = 200000
	counts := map[Kind]int{}
	for i := 0; i < n; i++ {
		in, ok := g.Next()
		if !ok {
			t.Fatal("generator must never exhaust")
		}
		counts[in.Kind]++
	}
	check := func(kind Kind, want float64) {
		got := float64(counts[kind]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%v fraction %.3f, want ~%.3f", kind, got, want)
		}
	}
	check(Load, app.LoadFrac)
	check(Store, app.StoreFrac)
	check(Branch, app.BranchFrac)
}

func TestGeneratorAddressesWithinFootprints(t *testing.T) {
	app, _ := ByName("mcf")
	g := MustNewGenerator(app, 4)
	ws := uint64(app.WorkingSetKB) * 1024
	code := uint64(app.CodeKB) * 1024
	for i := 0; i < 100000; i++ {
		in, _ := g.Next()
		if in.PC < codeBase || in.PC >= codeBase+code {
			t.Fatalf("PC %#x outside code footprint", in.PC)
		}
		if in.Kind == Load || in.Kind == Store {
			inWS := in.Addr >= dataBase && in.Addr < dataBase+ws
			inStream := in.Addr >= dataBase+ws && in.Addr < dataBase+ws*(1+streamScale)
			inStack := in.Addr >= stackBase && in.Addr < stackBase+stackBytes
			if !inWS && !inStream && !inStack {
				t.Fatalf("address %#x outside working set, stream region, and stack", in.Addr)
			}
		} else if in.Addr != 0 {
			t.Fatal("non-memory instruction carries an address")
		}
	}
}

func TestGeneratorSkew(t *testing.T) {
	// Hot-region references must concentrate on few blocks: the top 10%
	// of blocks should receive well over 10% of references for a skewed
	// app.
	app, _ := ByName("gzip") // ZipfS = 1.0, HotFrac 0.9
	g := MustNewGenerator(app, 5)
	counts := map[uint64]int{}
	refs := 0
	for i := 0; i < 3000000 && refs < 50000; i++ {
		in, _ := g.Next()
		if (in.Kind == Load || in.Kind == Store) && in.Addr < stackBase {
			counts[in.Addr/blockBytes]++
			refs++
		}
	}
	// Find the share of the single hottest block.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(refs) < 0.01 {
		t.Fatalf("hottest block has %.4f of references; expected strong skew", float64(max)/float64(refs))
	}
}

func TestGeneratorMispredictRate(t *testing.T) {
	app, _ := ByName("mcf") // 7% mispredict
	g := MustNewGenerator(app, 6)
	branches, mis := 0, 0
	for i := 0; i < 300000; i++ {
		in, _ := g.Next()
		if in.Kind == Branch {
			branches++
			if in.Mispredicted {
				mis++
			}
		}
	}
	rate := float64(mis) / float64(branches)
	if rate < 0.05 || rate > 0.09 {
		t.Fatalf("mispredict rate %.3f, want ~0.07", rate)
	}
}

func TestNewGeneratorRejectsInvalid(t *testing.T) {
	app, _ := ByName("gzip")
	app.WorkingSetKB = 0
	if _, err := NewGenerator(app, 1); err == nil {
		t.Fatal("invalid app must be rejected")
	}
}

func TestMustNewGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	app, _ := ByName("gzip")
	app.HotKB = 0
	MustNewGenerator(app, 1)
}

func TestLimit(t *testing.T) {
	app, _ := ByName("gzip")
	src := Limit(MustNewGenerator(app, 7), 5)
	for i := 0; i < 5; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("limited source ended early at %d", i)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("limited source must end after 5")
	}
}

func TestLimitPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	Limit(nil, -1)
}

package difftest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/refmodel"
)

// accessesPerCell scales the fuzzing depth: the in-tree default keeps
// `go test ./...` fast, `make diff-fuzz` (DIFF_FUZZ=1) runs the 10k
// accesses per cell the acceptance bar asks for, and DIFF_FUZZ_LONG=1 is
// the nightly soak.
func accessesPerCell() int {
	if os.Getenv("DIFF_FUZZ_LONG") != "" {
		return 100000
	}
	if os.Getenv("DIFF_FUZZ") != "" {
		return 10000
	}
	return 1500
}

// artifactDir is where shrunk divergence artifacts land: the CI workflow
// points DIFF_FUZZ_ARTIFACTS at a workspace directory it uploads on
// failure; locally the test's temp dir is used.
func artifactDir(t *testing.T) string {
	if dir := os.Getenv("DIFF_FUZZ_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("creating artifact dir: %v", err)
		}
		return dir
	}
	return t.TempDir()
}

// dumpDivergence shrinks a diverging sequence and writes the JSONL
// artifact, returning its path and the shrunk length.
func dumpDivergence(t *testing.T, cell Cell, workload string, opt Options, seq []Access) (string, int) {
	t.Helper()
	shrunk := Shrink(cell.Cfg, seq, opt)
	if shrunk == nil {
		t.Fatalf("sequence stopped diverging during shrink setup")
	}
	d := Diff(cell.Cfg, shrunk, opt)
	if d == nil {
		t.Fatalf("shrunk sequence no longer diverges")
	}
	path := filepath.Join(artifactDir(t), fmt.Sprintf("divergence-%s-%s.jsonl", cell.Name, workload))
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("creating artifact: %v", err)
	}
	defer f.Close()
	if err := WriteArtifact(f, cell.Name, workload, cell.Cfg, opt, d, shrunk); err != nil {
		t.Fatalf("writing artifact: %v", err)
	}
	return path, len(shrunk)
}

// TestDifferentialMatrix is the fuzzer: every policy-matrix cell runs
// every adversarial workload against both implementations, and any
// disagreement is shrunk and dumped before failing.
func TestDifferentialMatrix(t *testing.T) {
	n := accessesPerCell()
	for _, cell := range Matrix() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			for _, wl := range Workloads() {
				seq := wl.Gen(cell.Cfg, 11, n)
				if d := Diff(cell.Cfg, seq, Options{}); d != nil {
					path, size := dumpDivergence(t, cell, wl.Name, Options{}, seq)
					t.Fatalf("%s/%s diverged: %s\nshrunk to %d accesses, artifact: %s",
						cell.Name, wl.Name, d, size, path)
				}
			}
		})
	}
}

// TestDifferentialMatrixShared is the 2-core shared-L2 pass of the
// fuzzer: every policy-matrix cell runs every adversarial workload
// spread across two requestors through identical cmp bank-queues in
// front of both implementations (the -run regex of `make diff-fuzz`
// matches this test too, so the shared cell runs at CI depth and under
// -race).
func TestDifferentialMatrixShared(t *testing.T) {
	n := accessesPerCell()
	for _, cell := range Matrix() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			for _, wl := range Workloads() {
				seq := ShareAcross(wl.Gen(cell.Cfg, 11, n), 2, 23)
				if d := DiffShared(cell.Cfg, seq, Options{}); d != nil {
					t.Fatalf("%s/%s diverged on the shared 2-core path: %s",
						cell.Name, wl.Name, d)
				}
			}
		})
	}
}

// TestShareAcrossSpreadsCores guards the shared fuzzer input: both core
// ids must actually occur, and the original sequence must be untouched.
func TestShareAcrossSpreadsCores(t *testing.T) {
	seq := make([]Access, 200)
	shared := ShareAcross(seq, 2, 23)
	counts := map[int]int{}
	for _, a := range shared {
		counts[a.Core]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("core spread = %v, want both cores used", counts)
	}
	for i := range seq {
		if seq[i].Core != 0 {
			t.Fatal("ShareAcross modified its input")
		}
	}
}

// TestDiffSharedCatchesFault proves the shared path is a real oracle:
// a fault injected into the reference model must surface through the
// queued 2-core comparison too.
func TestDiffSharedCatchesFault(t *testing.T) {
	cell := faultCell()
	seq := ShareAcross(faultWorkload(cell.Cfg, 11, 4000), 2, 23)
	opt := Options{Fault: refmodel.FaultSkipDemoteHitsReset}
	if d := DiffShared(cell.Cfg, seq, opt); d == nil {
		t.Fatal("DiffShared missed an injected reference-model fault")
	}
}

// TestMatrixExercisesMachinery guards the fuzzer against silently gentle
// workloads: across the matrix, evictions, demotions, promotions,
// writebacks, predictor bypasses, dead-on-arrival fills, and memoized
// probes must all actually occur, or agreement proves nothing.
func TestMatrixExercisesMachinery(t *testing.T) {
	machinery := []string{
		"evictions", "demotions", "promotions", "writebacks",
		"bypasses", "dead_fills", "memo_hits",
	}
	totals := map[string]int64{}
	for _, cell := range Matrix() {
		for _, wl := range Workloads() {
			seq := wl.Gen(cell.Cfg, 11, 600)
			c := nurapid.MustNew(cell.Cfg, cacti.Default(), memsys.NewMemory(cell.Cfg.BlockBytes))
			now := int64(0)
			for _, a := range seq {
				r := c.Access(memsys.Req{Now: now, Addr: a.Addr, Write: a.Write})
				now = r.DoneAt + a.Gap
			}
			for _, name := range machinery {
				totals[name] += c.Counters().Get(name)
			}
		}
	}
	for _, name := range machinery {
		if totals[name] == 0 {
			t.Errorf("matrix never produced a single %s event", name)
		}
	}
}

// faultCell is a configuration in which FaultSkipDemoteHitsReset is
// observable. Three ingredients: a promotion trigger above 1 (so stale
// hit counts matter), a tight frame restriction (so hit blocks actually
// get demoted), and at least 3 d-groups — the faulted code path installs
// a *demoted* block over a further victim, which only happens in the
// middle links of a depth>=2 ripple; with 2 d-groups every demoted block
// lands in a frame freed by the eviction or promotion that started the
// chain and the reset is taken on the (always-correct) free-frame path.
func faultCell() Cell {
	return Cell{
		Name: "fault-4g-r16-next-lru-ph3",
		Cfg: nurapid.Config{
			CapacityBytes:  4 << 20,
			BlockBytes:     8192,
			Assoc:          8,
			NumDGroups:     4,
			Promotion:      nurapid.NextFastest,
			Distance:       nurapid.LRUDistance,
			Placement:      nurapid.DistanceAssociative,
			RestrictFrames: 16,
			PromoteHits:    3,
			Seed:           7,
		},
	}
}

// faultWorkload aims six sets that share one frame partition (sets
// congruent mod nParts) at 12 live tags each: enough partition pressure
// to fill three of the four d-group partitions, so demotion ripples run
// deep and blocks that have accumulated promotion hits get re-demoted —
// exactly where the skipped hits reset shows.
func faultWorkload(cfg nurapid.Config, seed uint64, n int) []Access {
	geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
	rng := mathx.NewRNG(seed)
	sets := []int{0, 8, 16, 24, 32, 40} // all partition 0 under RestrictFrames=16 (nParts=8)
	seq := make([]Access, n)
	for i := range seq {
		set := sets[rng.Intn(len(sets))]
		tag := rng.Intn(12)
		seq[i] = Access{
			Addr:  uint64(tag*geo.NumSets()+set) * uint64(cfg.BlockBytes),
			Write: rng.Bool(0.2),
			Gap:   int64(rng.Intn(4)),
		}
	}
	return seq
}

// TestSeededFaultCaughtAndShrunk is the harness's proof of life: with a
// deliberately wrong reference model (the demote path keeps the stale
// promotion hit count), the differ must report a divergence and the
// shrinker must cut the reproducer down to a small fraction of the
// original sequence while preserving it.
func TestSeededFaultCaughtAndShrunk(t *testing.T) {
	cell := faultCell()
	seq := faultWorkload(cell.Cfg, 11, 4000)

	if d := Diff(cell.Cfg, seq, Options{}); d != nil {
		t.Fatalf("models disagree before any fault was injected: %s", d)
	}
	faulty := Options{Fault: refmodel.FaultSkipDemoteHitsReset}
	d := Diff(cell.Cfg, seq, faulty)
	if d == nil {
		t.Fatal("seeded fault was not caught: the harness cannot detect a known-wrong spec")
	}
	t.Logf("seeded fault caught: %s", d)

	shrunk := Shrink(cell.Cfg, seq, faulty)
	if shrunk == nil {
		t.Fatal("shrinker lost the divergence")
	}
	if len(shrunk) >= len(seq)/4 {
		t.Fatalf("shrinker left %d of %d accesses; want a small reproducer", len(shrunk), len(seq))
	}
	if d := Diff(cell.Cfg, shrunk, faulty); d == nil {
		t.Fatal("shrunk sequence does not reproduce the divergence")
	}
	t.Logf("shrunk reproducer: %d of %d accesses", len(shrunk), len(seq))
}

// deadOnArrivalFaultCell is a configuration in which
// FaultDeadOnArrivalInverted is observable: the fault swaps which fills
// take the dead-on-arrival path, so any fill whose prediction the two
// sides route differently surfaces immediately as a Place-group (and
// latency) divergence.
func deadOnArrivalFaultCell() Cell {
	return Cell{
		Name: "fault-4g-da-next-doa-ph3",
		Cfg: nurapid.Config{
			CapacityBytes: 4 << 20,
			BlockBytes:    8192,
			Assoc:         8,
			NumDGroups:    4,
			Promotion:     nurapid.NextFastest,
			Distance:      nurapid.DeadOnArrival,
			Placement:     nurapid.DistanceAssociative,
			PromoteHits:   3,
			Seed:          7,
		},
	}
}

// TestSeededFaultDeadOnArrivalCaught proves the grown matrix still has a
// live oracle over the predictor policies: a reference model that sends
// every fill to the wrong target d-group (inverting the dead-on-arrival
// decision) must be caught, and the shrinker must reduce the reproducer —
// the very first fill already diverges, so it shrinks to almost nothing.
func TestSeededFaultDeadOnArrivalCaught(t *testing.T) {
	cell := deadOnArrivalFaultCell()
	var wl Workload
	for _, w := range Workloads() {
		if w.Name == "stream-scan" {
			wl = w
		}
	}
	if wl.Gen == nil {
		t.Fatal("stream-scan workload missing from Workloads()")
	}
	seq := wl.Gen(cell.Cfg, 11, 4000)

	if d := Diff(cell.Cfg, seq, Options{}); d != nil {
		t.Fatalf("models disagree before any fault was injected: %s", d)
	}
	faulty := Options{Fault: refmodel.FaultDeadOnArrivalInverted}
	d := Diff(cell.Cfg, seq, faulty)
	if d == nil {
		t.Fatal("seeded dead-on-arrival fault was not caught: the matrix does not gate the predictor fill path")
	}
	t.Logf("seeded fault caught: %s", d)

	shrunk := Shrink(cell.Cfg, seq, faulty)
	if shrunk == nil {
		t.Fatal("shrinker lost the divergence")
	}
	if len(shrunk) > 4 {
		t.Fatalf("shrinker left %d accesses; an inverted first fill should reproduce in a handful", len(shrunk))
	}
	if d := Diff(cell.Cfg, shrunk, faulty); d == nil {
		t.Fatal("shrunk sequence does not reproduce the divergence")
	}
	t.Logf("shrunk reproducer: %d of %d accesses", len(shrunk), len(seq))
}

// TestArtifactRoundTrip pins the JSONL artifact format: a dumped
// divergence can be read back into the same config and access sequence,
// and the replayed sequence still diverges.
func TestArtifactRoundTrip(t *testing.T) {
	cell, faulty, shrunk, data := faultArtifact(t)
	cfg, replay, err := ReadArtifact(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reading artifact back: %v", err)
	}
	if cfg != cell.Cfg {
		t.Fatalf("config round-trip mismatch:\n got %+v\nwant %+v", cfg, cell.Cfg)
	}
	if !reflect.DeepEqual(replay, shrunk) {
		t.Fatalf("sequence round-trip mismatch: got %d accesses, want %d", len(replay), len(shrunk))
	}
	if d := Diff(cfg, replay, faulty); d == nil {
		t.Fatal("replayed artifact does not reproduce the divergence")
	}
}

// faultArtifact shrinks the seeded fault's divergence on faultCell and
// writes it as an artifact: the cell, the faulty options, the shrunk
// sequence and the artifact's bytes.
func faultArtifact(t testing.TB) (Cell, Options, []Access, []byte) {
	t.Helper()
	cell := faultCell()
	faulty := Options{Fault: refmodel.FaultSkipDemoteHitsReset}
	shrunk := Shrink(cell.Cfg, faultWorkload(cell.Cfg, 11, 4000), faulty)
	if shrunk == nil {
		t.Fatal("no divergence to round-trip")
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, cell.Name, "fault-workload", cell.Cfg, faulty, Diff(cell.Cfg, shrunk, faulty), shrunk); err != nil {
		t.Fatalf("writing artifact: %v", err)
	}
	return cell, faulty, shrunk, buf.Bytes()
}

// FuzzReadArtifact feeds ReadArtifact arbitrary bytes: it must return an
// error or an artifact, never panic, and an artifact it returns must
// survive Write, Read, Write with the same bytes both times. The seed is
// TestArtifactRoundTrip's artifact.
func FuzzReadArtifact(f *testing.F) {
	_, _, _, data := faultArtifact(f)
	f.Add(data)
	f.Add([]byte("{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, seq, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		write := func(cfg nurapid.Config, seq []Access) []byte {
			var buf bytes.Buffer
			d := &Divergence{Index: -1, Field: "fuzz"}
			if err := WriteArtifact(&buf, "fuzz", "fuzz", cfg, Options{}, d, seq); err != nil {
				t.Fatalf("writing what ReadArtifact returned: %v", err)
			}
			return buf.Bytes()
		}
		first := write(cfg, seq)
		cfg, seq, err = ReadArtifact(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reading back a written artifact: %v", err)
		}
		if second := write(cfg, seq); !bytes.Equal(first, second) {
			t.Fatalf("Write, Read, Write changed the artifact:\n%s\n%s", first, second)
		}
	})
}

// TestNewErrorParity checks configuration legality is part of the shared
// contract: nurapid.New and refmodel.New accept and reject the same
// configurations.
func TestNewErrorParity(t *testing.T) {
	mutations := []func(*nurapid.Config){
		func(c *nurapid.Config) {}, // valid baseline
		func(c *nurapid.Config) { c.NumDGroups = 3 },
		func(c *nurapid.Config) { c.CapacityBytes = 512 << 10 },
		func(c *nurapid.Config) { c.RestrictFrames = 1000 },
		func(c *nurapid.Config) { c.RestrictFrames = 1 }, // more partitions than sets
		func(c *nurapid.Config) { c.Placement = nurapid.SetAssociative; c.RestrictFrames = 256 },
		func(c *nurapid.Config) { c.Placement = nurapid.Placement(9) },
		func(c *nurapid.Config) { c.PromoteHits = -1 },
		func(c *nurapid.Config) { c.PromoteHits = 201 },
		// Values past the uint8 saturation point must be rejected at New
		// on both sides, not silently truncated into the hit counter.
		func(c *nurapid.Config) { c.PromoteHits = 256 },
		func(c *nurapid.Config) { c.PromoteHits = 1000 },
		func(c *nurapid.Config) {
			c.Promotion = nurapid.PredictiveBypass
			c.Distance = nurapid.DeadOnArrival
			c.Memoize = true
		},
	}
	m := cacti.Default()
	for i, mutate := range mutations {
		cfg := nurapid.DefaultConfig()
		mutate(&cfg)
		_, fastErr := nurapid.New(cfg, m, memsys.NewMemory(cfg.BlockBytes))
		_, refErr := refmodel.New(cfg, m, memsys.NewMemory(cfg.BlockBytes))
		if (fastErr == nil) != (refErr == nil) {
			t.Errorf("mutation %d: acceptance disagrees: fast err=%v, ref err=%v", i, fastErr, refErr)
		}
	}
}

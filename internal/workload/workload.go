// Package workload synthesizes the instruction and memory-reference
// streams the simulations run on.
//
// The paper evaluated 15 SPEC2K applications (Table 3), classified into
// high-load and low-load by their L2 accesses per thousand instructions.
// SPEC reference traces are not available here, so each application is
// modeled by a small set of parameters — working-set size, hot-region
// size and skew, streaming fraction, instruction mix, and branch
// behaviour — chosen so the generated stream reproduces the two
// properties the evaluation depends on: L2 access intensity (after L1
// filtering) and footprint pressure on the d-groups. Table 3's surviving
// anchor values (base IPC, accesses per kilo-instruction) are carried in
// the model for comparison against measured results; values lost to the
// source text's OCR are reconstructed and flagged in EXPERIMENTS.md.
package workload

import "fmt"

// Kind classifies one dynamic instruction.
type Kind uint8

const (
	// ALU is any non-memory, non-branch instruction.
	ALU Kind = iota
	// Load reads memory.
	Load
	// Store writes memory.
	Store
	// Branch may redirect fetch.
	Branch
)

func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Instr is one dynamic instruction.
type Instr struct {
	Kind Kind
	PC   uint64 // fetch address
	Addr uint64 // effective address for Load/Store, else 0
	// Mispredicted marks a branch the predictor got wrong; the model
	// folds the predictor's accuracy into the stream.
	Mispredicted bool
}

// Source produces a dynamic instruction stream. Next returns false when
// the stream is exhausted (generators never exhaust; trace readers do).
type Source interface {
	// Next returns the next instruction, or false once exhausted. The
	// core calls it once per dispatched instruction.
	//nurapid:hotpath
	Next() (Instr, bool)
}

// Class is the paper's load classification.
type Class int

const (
	// HighLoad applications access the L2 frequently.
	HighLoad Class = iota
	// LowLoad applications rarely miss the L1s.
	LowLoad
)

func (c Class) String() string {
	if c == HighLoad {
		return "high"
	}
	return "low"
}

// App is one modeled benchmark.
type App struct {
	Name  string
	FP    bool // floating-point vs integer suite
	Class Class

	// Table 3 anchors (documentation and comparison only — the
	// generator is calibrated toward these, not driven by them).
	TableIPC  float64 // base-case IPC
	TableAPKI float64 // L2 accesses per 1000 instructions

	// Generator parameters.
	WorkingSetKB int     // total data footprint
	HotKB        int     // skewed-reuse region
	HotFrac      float64 // fraction of references into the hot region
	ZipfS        float64 // skew of hot-region block popularity
	StreamFrac   float64 // fraction of references that stream sequentially
	ColumnFrac   float64 // fraction of references walking strided columns
	LoadFrac     float64 // fraction of instructions that load
	StoreFrac    float64 // fraction of instructions that store
	BranchFrac   float64 // fraction of instructions that branch
	Mispredict   float64 // branch misprediction rate
	CodeKB       int     // instruction footprint
}

// Apps returns the 15-application roster modeled after the paper's
// Table 3: 12 high-load and 3 low-load SPEC2K benchmarks.
func Apps() []App {
	return []App{
		// High-load floating point.
		{Name: "applu", FP: true, Class: HighLoad, TableIPC: 0.9, TableAPKI: 42,
			WorkingSetKB: 2560, HotKB: 1536, HotFrac: 0.60, ZipfS: 0.55, StreamFrac: 0.30, ColumnFrac: 0.20,
			LoadFrac: 0.29, StoreFrac: 0.14, BranchFrac: 0.07, Mispredict: 0.015, CodeKB: 96},
		{Name: "apsi", FP: true, Class: HighLoad, TableIPC: 1.0, TableAPKI: 25,
			WorkingSetKB: 2048, HotKB: 1280, HotFrac: 0.70, ZipfS: 0.75, StreamFrac: 0.20, ColumnFrac: 0.15,
			LoadFrac: 0.27, StoreFrac: 0.13, BranchFrac: 0.08, Mispredict: 0.02, CodeKB: 128},
		{Name: "art", FP: true, Class: HighLoad, TableIPC: 0.5, TableAPKI: 47,
			WorkingSetKB: 3584, HotKB: 3072, HotFrac: 0.85, ZipfS: 0.25, StreamFrac: 0.25, ColumnFrac: 0.15,
			LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.09, Mispredict: 0.01, CodeKB: 32},
		{Name: "equake", FP: true, Class: HighLoad, TableIPC: 0.7, TableAPKI: 39,
			WorkingSetKB: 2048, HotKB: 1536, HotFrac: 0.65, ZipfS: 0.50, StreamFrac: 0.30, ColumnFrac: 0.15,
			LoadFrac: 0.31, StoreFrac: 0.12, BranchFrac: 0.08, Mispredict: 0.02, CodeKB: 64},
		{Name: "galgel", FP: true, Class: HighLoad, TableIPC: 0.9, TableAPKI: 28,
			WorkingSetKB: 1536, HotKB: 1024, HotFrac: 0.70, ZipfS: 0.70, StreamFrac: 0.25, ColumnFrac: 0.20,
			LoadFrac: 0.28, StoreFrac: 0.11, BranchFrac: 0.07, Mispredict: 0.015, CodeKB: 96},
		{Name: "mgrid", FP: true, Class: HighLoad, TableIPC: 0.8, TableAPKI: 30,
			WorkingSetKB: 3072, HotKB: 1536, HotFrac: 0.55, ZipfS: 0.45, StreamFrac: 0.40, ColumnFrac: 0.25,
			LoadFrac: 0.30, StoreFrac: 0.13, BranchFrac: 0.05, Mispredict: 0.01, CodeKB: 64},
		// High-load integer.
		{Name: "bzip2", FP: false, Class: HighLoad, TableIPC: 1.1, TableAPKI: 18,
			WorkingSetKB: 1536, HotKB: 768, HotFrac: 0.75, ZipfS: 0.80, StreamFrac: 0.20, ColumnFrac: 0.05,
			LoadFrac: 0.26, StoreFrac: 0.12, BranchFrac: 0.13, Mispredict: 0.05, CodeKB: 64},
		{Name: "gcc", FP: false, Class: HighLoad, TableIPC: 1.0, TableAPKI: 16,
			WorkingSetKB: 1024, HotKB: 512, HotFrac: 0.70, ZipfS: 0.85, StreamFrac: 0.10, ColumnFrac: 0.03,
			LoadFrac: 0.25, StoreFrac: 0.13, BranchFrac: 0.15, Mispredict: 0.06, CodeKB: 512},
		{Name: "mcf", FP: false, Class: HighLoad, TableIPC: 0.5, TableAPKI: 37,
			WorkingSetKB: 6144, HotKB: 2560, HotFrac: 0.60, ZipfS: 0.40, StreamFrac: 0.05, ColumnFrac: 0.05,
			LoadFrac: 0.33, StoreFrac: 0.10, BranchFrac: 0.17, Mispredict: 0.07, CodeKB: 32},
		{Name: "parser", FP: false, Class: HighLoad, TableIPC: 0.9, TableAPKI: 22,
			WorkingSetKB: 1536, HotKB: 768, HotFrac: 0.70, ZipfS: 0.75, StreamFrac: 0.10, ColumnFrac: 0.03,
			LoadFrac: 0.27, StoreFrac: 0.12, BranchFrac: 0.16, Mispredict: 0.06, CodeKB: 128},
		{Name: "twolf", FP: false, Class: HighLoad, TableIPC: 0.9, TableAPKI: 20,
			WorkingSetKB: 1024, HotKB: 640, HotFrac: 0.75, ZipfS: 0.70, StreamFrac: 0.05, ColumnFrac: 0.05,
			LoadFrac: 0.28, StoreFrac: 0.10, BranchFrac: 0.14, Mispredict: 0.06, CodeKB: 96},
		{Name: "vpr", FP: false, Class: HighLoad, TableIPC: 0.9, TableAPKI: 18,
			WorkingSetKB: 1024, HotKB: 640, HotFrac: 0.72, ZipfS: 0.72, StreamFrac: 0.08, ColumnFrac: 0.05,
			LoadFrac: 0.28, StoreFrac: 0.11, BranchFrac: 0.13, Mispredict: 0.05, CodeKB: 96},
		// Low-load.
		{Name: "gap", FP: false, Class: LowLoad, TableIPC: 1.3, TableAPKI: 5,
			WorkingSetKB: 1024, HotKB: 512, HotFrac: 0.85, ZipfS: 0.95, StreamFrac: 0.10, ColumnFrac: 0.02,
			LoadFrac: 0.25, StoreFrac: 0.12, BranchFrac: 0.13, Mispredict: 0.04, CodeKB: 128},
		{Name: "gzip", FP: false, Class: LowLoad, TableIPC: 1.4, TableAPKI: 4,
			WorkingSetKB: 768, HotKB: 384, HotFrac: 0.90, ZipfS: 1.00, StreamFrac: 0.15, ColumnFrac: 0.02,
			LoadFrac: 0.24, StoreFrac: 0.12, BranchFrac: 0.12, Mispredict: 0.04, CodeKB: 64},
		{Name: "wupwise", FP: true, Class: LowLoad, TableIPC: 1.3, TableAPKI: 6,
			WorkingSetKB: 1536, HotKB: 768, HotFrac: 0.85, ZipfS: 0.90, StreamFrac: 0.20, ColumnFrac: 0.10,
			LoadFrac: 0.27, StoreFrac: 0.12, BranchFrac: 0.08, Mispredict: 0.02, CodeKB: 96},
	}
}

// Streaming returns a synthetic streaming-heavy application: most of its
// references sweep a working set three times the 8-MB L2, so the swept
// blocks are genuinely dead on arrival (evicted before the scan wraps),
// while a small hot set keeps strong reuse — the separation the
// reuse-distance predictor exists to learn. It is not part of the
// paper's Table 3 roster (Apps() excludes it), but ByName resolves it
// and the predictor study runs it alongside the roster.
func Streaming() App {
	return App{
		Name: "stream", FP: true, Class: HighLoad, TableIPC: 0.7, TableAPKI: 45,
		WorkingSetKB: 24576, HotKB: 512, HotFrac: 0.22, ZipfS: 0.60, StreamFrac: 0.65, ColumnFrac: 0.15,
		LoadFrac: 0.32, StoreFrac: 0.12, BranchFrac: 0.06, Mispredict: 0.01, CodeKB: 32,
	}
}

// ByName finds an application model by name, including the synthetic
// streaming application outside the Table 3 roster.
func ByName(name string) (App, bool) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, true
		}
	}
	if s := Streaming(); s.Name == name {
		return s, true
	}
	return App{}, false
}

// Validate checks that the model's fractions are sane.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: empty app name")
	}
	if a.WorkingSetKB <= 0 || a.HotKB <= 0 || a.HotKB > a.WorkingSetKB {
		return fmt.Errorf("workload %s: bad footprint (ws=%d hot=%d)", a.Name, a.WorkingSetKB, a.HotKB)
	}
	if a.CodeKB <= 0 {
		return fmt.Errorf("workload %s: bad code footprint", a.Name)
	}
	sum := a.LoadFrac + a.StoreFrac + a.BranchFrac
	if a.LoadFrac < 0 || a.StoreFrac < 0 || a.BranchFrac < 0 || sum >= 1 {
		return fmt.Errorf("workload %s: instruction mix sums to %v", a.Name, sum)
	}
	for _, f := range []float64{a.HotFrac, a.StreamFrac, a.ColumnFrac, a.Mispredict, a.ZipfS} {
		if f < 0 || f > 2.0 {
			return fmt.Errorf("workload %s: parameter %v out of range", a.Name, f)
		}
	}
	if a.StreamFrac+a.ColumnFrac >= 1 {
		return fmt.Errorf("workload %s: stream+column fractions %v leave no room",
			a.Name, a.StreamFrac+a.ColumnFrac)
	}
	return nil
}

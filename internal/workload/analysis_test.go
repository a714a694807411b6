package workload

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nurapid/internal/mathx"
)

func TestAnalyzerColdCounts(t *testing.T) {
	a := NewAnalyzer(128)
	for i := 0; i < 10; i++ {
		a.Touch(uint64(i) * 128)
	}
	h := a.Histogram()
	if h.Cold != 10 || h.Total != 10 {
		t.Fatalf("cold=%d total=%d, want 10/10", h.Cold, h.Total)
	}
	if a.DistinctBlocks() != 10 {
		t.Fatalf("distinct = %d", a.DistinctBlocks())
	}
}

func TestAnalyzerImmediateReuse(t *testing.T) {
	a := NewAnalyzer(128)
	a.Touch(0)
	a.Touch(0) // distance 0
	h := a.Histogram()
	if h.Buckets[0] != 1 {
		t.Fatalf("immediate reuse not in bucket 0: %v", h.Buckets)
	}
}

func TestAnalyzerExactDistances(t *testing.T) {
	// Access A, then 5 distinct blocks, then A again: distance 5.
	a := NewAnalyzer(128)
	a.Touch(0)
	for i := 1; i <= 5; i++ {
		a.Touch(uint64(i) * 128)
	}
	a.Touch(0)
	// Distance 5 -> bucket 2 (4 <= 5 < 8).
	h := a.Histogram()
	if len(h.Buckets) < 3 || h.Buckets[2] != 1 {
		t.Fatalf("distance-5 reuse missing: %v", h.Buckets)
	}
}

func TestAnalyzerRepeatsDoNotInflateDistance(t *testing.T) {
	// A B B B A: the distance of the second A is 1 (only B distinct).
	a := NewAnalyzer(128)
	a.Touch(0)
	a.Touch(128)
	a.Touch(128)
	a.Touch(128)
	a.Touch(0)
	h := a.Histogram()
	// Distance 1 -> bucket 0; plus the two B self-reuses.
	if h.Buckets[0] != 3 {
		t.Fatalf("buckets = %v, want 3 entries in bucket 0", h.Buckets)
	}
}

func TestAnalyzerBlockGranularity(t *testing.T) {
	a := NewAnalyzer(128)
	a.Touch(0)
	a.Touch(64) // same 128-B block
	if a.DistinctBlocks() != 1 {
		t.Fatal("same-block offsets must not count as distinct")
	}
	if a.Histogram().Buckets[0] != 1 {
		t.Fatal("same-block reuse must be distance 0")
	}
}

func TestHitFractionAt(t *testing.T) {
	a := NewAnalyzer(128)
	// Cyclic access over 4 blocks, 10 rounds: distances are all 3.
	for r := 0; r < 10; r++ {
		for b := 0; b < 4; b++ {
			a.Touch(uint64(b) * 128)
		}
	}
	h := a.Histogram()
	// Distance 3 -> bucket 1 (2 <= 3 < 4): hits only when capacity >= 4.
	if f := h.HitFractionAt(2); f != 0 {
		t.Fatalf("HitFractionAt(2) = %v, want 0", f)
	}
	if f := h.HitFractionAt(4); f <= 0.8 {
		t.Fatalf("HitFractionAt(4) = %v, want ~0.9 (36 of 40)", f)
	}
}

func TestHitFractionMonotone(t *testing.T) {
	// Property: the LRU hit fraction is nondecreasing in capacity.
	app, _ := ByName("galgel")
	a := AnalyzeSource(MustNewGenerator(app, 3), 50_000, 128)
	h := a.Histogram()
	f := func(rawA, rawB uint16) bool {
		ca, cb := int64(rawA)+1, int64(rawB)+1
		if ca > cb {
			ca, cb = cb, ca
		}
		return h.HitFractionAt(ca) <= h.HitFractionAt(cb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzerMatchesBruteForce(t *testing.T) {
	// Cross-check the Fenwick-tree stack distances against a brute-force
	// LRU stack on a random stream.
	rng := mathx.NewRNG(9)
	a := NewAnalyzer(128)
	var stack []uint64 // most recent first
	brute := NewReuseHistogramLike()
	for i := 0; i < 3000; i++ {
		block := uint64(rng.Intn(100))
		a.Touch(block * 128)
		// Brute force.
		pos := -1
		for j, b := range stack {
			if b == block {
				pos = j
				break
			}
		}
		if pos < 0 {
			brute.Cold++
		} else {
			brute.record(int64(pos))
			stack = append(stack[:pos], stack[pos+1:]...)
		}
		stack = append([]uint64{block}, stack...)
		brute.Total++
	}
	h := a.Histogram()
	if h.Cold != brute.Cold || h.Total != brute.Total {
		t.Fatalf("cold/total mismatch: %d/%d vs %d/%d", h.Cold, h.Total, brute.Cold, brute.Total)
	}
	for i := range brute.Buckets {
		got := int64(0)
		if i < len(h.Buckets) {
			got = h.Buckets[i]
		}
		if got != brute.Buckets[i] {
			t.Fatalf("bucket %d: analyzer %d vs brute force %d\nanalyzer %v\nbrute    %v",
				i, got, brute.Buckets[i], h.Buckets, brute.Buckets)
		}
	}
}

// NewReuseHistogramLike builds an empty histogram for the brute-force
// cross-check.
func NewReuseHistogramLike() *ReuseHistogram { return &ReuseHistogram{} }

func (h *ReuseHistogram) record(d int64) {
	bucket := 0
	for v := d; v > 1; v >>= 1 {
		bucket++
	}
	for len(h.Buckets) <= bucket {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[bucket]++
}

func TestAnalyzeSource(t *testing.T) {
	app, _ := ByName("gzip")
	a := AnalyzeSource(MustNewGenerator(app, 5), 30_000, 128)
	if a.Histogram().Total == 0 {
		t.Fatal("no references analyzed")
	}
	if a.DistinctBlocks() == 0 {
		t.Fatal("no distinct blocks")
	}
}

func TestHistogramWriteText(t *testing.T) {
	a := NewAnalyzer(128)
	a.Touch(0)
	a.Touch(0)
	var b strings.Builder
	if err := a.Histogram().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cold") {
		t.Fatalf("output missing cold row: %q", b.String())
	}
}

// TestGeneratorPopularitySkew checks that gzip's data references are
// skewed: its most-touched block sees more accesses than its tenth.
func TestGeneratorPopularitySkew(t *testing.T) {
	app, _ := ByName("gzip") // strong skew
	src := MustNewGenerator(app, 7)
	perBlock := make(map[uint64]int64)
	for i := 0; i < 50_000; i++ {
		in, _ := src.Next()
		if in.Kind == Load || in.Kind == Store {
			perBlock[in.Addr/128]++
		}
	}
	counts := make([]int64, 0, len(perBlock))
	for _, c := range perBlock {
		counts = append(counts, c)
	}
	slices.Sort(counts)
	if len(counts) < 10 {
		t.Fatalf("only %d blocks touched", len(counts))
	}
	if top, tenth := counts[len(counts)-1], counts[len(counts)-10]; top <= tenth {
		t.Fatalf("no skew: rank 0 has %d accesses, rank 9 has %d", top, tenth)
	}
}

func TestNewAnalyzerPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic")
		}
	}()
	NewAnalyzer(0)
}

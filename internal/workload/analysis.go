package workload

import (
	"fmt"
	"io"
)

// ReuseHistogram is a log2-bucketed histogram of LRU stack distances
// (reuse distances) at cache-block granularity: bucket i counts accesses
// whose reuse distance d satisfies 2^i <= d < 2^(i+1), with bucket 0
// holding d in {0, 1}. Cold (first-touch) accesses are counted
// separately. The reuse-distance profile of a stream predicts its hit
// rate in any LRU cache of a given capacity, which is how the workload
// models were sanity-checked against the paper's Table 3 loads.
type ReuseHistogram struct {
	Buckets []int64
	Cold    int64
	Total   int64
}

// HitFractionAt returns the fraction of all accesses whose reuse
// distance is below capacityBlocks — the hit rate of a fully-associative
// LRU cache of that size (conservatively bucketed: a bucket counts as a
// hit only if its entire range fits).
func (h *ReuseHistogram) HitFractionAt(capacityBlocks int64) float64 {
	if h.Total == 0 {
		return 0
	}
	var hits int64
	for i, c := range h.Buckets {
		upper := int64(1) << uint(i+1) // exclusive bucket upper bound
		if upper <= capacityBlocks {
			hits += c
		}
	}
	return float64(hits) / float64(h.Total)
}

// WriteText renders the histogram, one bucket per line.
func (h *ReuseHistogram) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-20s %12s %8s\n", "reuse distance", "accesses", "share"); err != nil {
		return err
	}
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo := int64(1) << uint(i)
		if i == 0 {
			lo = 0
		}
		hi := int64(1)<<uint(i+1) - 1
		if _, err := fmt.Fprintf(w, "[%8d,%8d]  %12d %7.2f%%\n",
			lo, hi, c, 100*float64(c)/float64(h.Total)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-20s %12d %7.2f%%\n", "cold (first touch)",
		h.Cold, 100*float64(h.Cold)/float64(max(h.Total, 1)))
	return err
}

// fenwick is a binary indexed tree over access timestamps, counting the
// "most recent access" markers used by the exact stack-distance
// algorithm (Bennett & Kruskal).
type fenwick struct {
	tree []int64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int64, n+1)} }

func (f *fenwick) add(i int, delta int64) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// prefix returns the sum of [0, i].
func (f *fenwick) prefix(i int) int64 {
	var s int64
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// grow doubles the tree to cover at least n entries, preserving content.
func (f *fenwick) grow(n int) {
	if n+1 <= len(f.tree) {
		return
	}
	size := len(f.tree)
	for size < n+1 {
		size *= 2
	}
	// Rebuild from point values (O(n log n), amortized by doubling).
	old := f.tree
	vals := make([]int64, len(old))
	for i := 1; i < len(old); i++ {
		v := old[i]
		// Subtract children already counted in this node.
		for j := i - (i & (-i)) + 1; j < i; j += j & (-j) {
			v -= vals[j]
		}
		vals[i] = v
	}
	f.tree = make([]int64, size)
	for i := 1; i < len(old); i++ {
		if vals[i] != 0 {
			f.add(i-1, vals[i])
		}
	}
}

// Analyzer computes exact LRU stack distances over a block-granular
// reference stream in O(log n) per access.
type Analyzer struct {
	blockBytes uint64
	last       map[uint64]int // block -> timestamp of previous access
	bit        *fenwick
	t          int
	hist       ReuseHistogram
	distinct   int64
}

// NewAnalyzer creates an analyzer at the given block granularity.
func NewAnalyzer(blockBytes int) *Analyzer {
	if blockBytes <= 0 {
		panic("workload: analyzer block size must be positive")
	}
	return &Analyzer{
		blockBytes: uint64(blockBytes),
		last:       make(map[uint64]int),
		bit:        newFenwick(1 << 12),
	}
}

// Touch records one memory reference.
func (a *Analyzer) Touch(addr uint64) {
	block := addr / a.blockBytes
	a.bit.grow(a.t + 1)
	a.hist.Total++
	if prev, ok := a.last[block]; ok {
		// Distinct blocks touched strictly after prev = markers in
		// (prev, t-1].
		d := a.bit.prefix(a.t-1) - a.bit.prefix(prev)
		a.recordDistance(d)
		a.bit.add(prev, -1)
	} else {
		a.hist.Cold++
		a.distinct++
	}
	a.bit.add(a.t, 1)
	a.last[block] = a.t
	a.t++
}

func (a *Analyzer) recordDistance(d int64) {
	bucket := 0
	for v := d; v > 1; v >>= 1 {
		bucket++
	}
	for len(a.hist.Buckets) <= bucket {
		a.hist.Buckets = append(a.hist.Buckets, 0)
	}
	a.hist.Buckets[bucket]++
}

// Histogram returns the reuse-distance histogram accumulated so far.
func (a *Analyzer) Histogram() *ReuseHistogram { return &a.hist }

// DistinctBlocks returns the number of distinct blocks touched.
func (a *Analyzer) DistinctBlocks() int64 { return a.distinct }

// AnalyzeSource drains up to n instructions from src through an analyzer
// at the given block size, returning it for inspection. Only data
// references (loads and stores) are analyzed.
func AnalyzeSource(src Source, n int64, blockBytes int) *Analyzer {
	a := NewAnalyzer(blockBytes)
	for i := int64(0); i < n; i++ {
		in, ok := src.Next()
		if !ok {
			break
		}
		if in.Kind == Load || in.Kind == Store {
			a.Touch(in.Addr)
		}
	}
	return a
}

package stats

import "fmt"

// Histogram is a fixed-bucket histogram over non-negative integer
// samples: numBuckets contiguous buckets of equal width starting at
// zero, plus an overflow bucket for everything past the last edge. The
// observability layer uses it for demotion-chain depths and hit-latency
// distributions; buckets are fixed at construction so recording a
// sample is two array operations and never allocates.
type Histogram struct {
	name    string
	width   int64
	buckets []int64
	over    int64 // samples >= width*len(buckets)
	total   int64
	sum     int64
}

// NewHistogram builds a histogram named name (metric-name convention:
// lower_snake_case, enforced by the statsreg analyzer) with numBuckets
// buckets of the given width.
func NewHistogram(name string, numBuckets int, width int64) *Histogram {
	if numBuckets <= 0 || width <= 0 {
		panic(fmt.Sprintf("stats: histogram %q needs positive buckets (%d) and width (%d)",
			name, numBuckets, width))
	}
	return &Histogram{name: name, width: width, buckets: make([]int64, numBuckets)}
}

// Add records one sample. Negative samples are invalid: the simulator's
// depths and latencies are non-negative by construction, so a negative
// value is a caller bug and fails loudly.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative sample %d in histogram %q", v, h.name))
	}
	i := v / h.width
	if i >= int64(len(h.buckets)) {
		h.over++
	} else {
		h.buckets[i]++
	}
	h.total++
	h.sum += v
}

// Name returns the histogram's metric name.
func (h *Histogram) Name() string { return h.name }

// NumBuckets returns the number of regular buckets (overflow excluded).
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Width returns the bucket width.
func (h *Histogram) Width() int64 { return h.width }

// Count returns the number of samples in bucket i.
func (h *Histogram) Count(i int) int64 { return h.buckets[i] }

// Overflow returns the number of samples past the last bucket edge.
func (h *Histogram) Overflow() int64 { return h.over }

// Total returns the number of recorded samples.
func (h *Histogram) Total() int64 { return h.total }

// Mean returns the arithmetic mean of the recorded samples (0 when
// empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// BucketLabel renders bucket i's value range: the single value for
// width-1 buckets, "[lo,hi)" otherwise.
func (h *Histogram) BucketLabel(i int) string {
	lo := int64(i) * h.width
	if h.width == 1 {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("[%d,%d)", lo, lo+h.width)
}

// Snapshot emits every bucket in order, then the overflow, total, and
// sum (statsreg convention: every counter field must appear here).
func (h *Histogram) Snapshot() []KV {
	return appendHistogram(make([]KV, 0, h.SnapshotLen()), h.name, h.width, h.buckets, h.over, h.total, h.sum)
}

// AppendSnapshot appends Snapshot's metrics to out, for a caller that
// sizes one slice for several snapshots.
func (h *Histogram) AppendSnapshot(out []KV) []KV {
	return appendHistogram(out, h.name, h.width, h.buckets, h.over, h.total, h.sum)
}

// SnapshotLen returns the number of metrics Snapshot emits.
func (h *Histogram) SnapshotLen() int { return len(h.buckets) + 3 }

// appendHistogram appends a histogram's metrics, named from name: one
// per bucket, keyed by its upper edge, then the overflow, total and sum.
func appendHistogram(out []KV, name string, width int64, buckets []int64, over, total, sum int64) []KV {
	for i, c := range buckets {
		out = append(out, KV{
			Name:  Name(name, "_le_", Itoa(int(int64(i+1)*width-1))),
			Value: float64(c),
		})
	}
	return append(out,
		KV{Name: Name(name, "_overflow"), Value: float64(over)},
		KV{Name: Name(name, "_total"), Value: float64(total)},
		KV{Name: Name(name, "_sum"), Value: float64(sum)})
}

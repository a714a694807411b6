package stats

import (
	"strings"
	"testing"
)

// TestHistogramBucketEdges pins which bucket a sample lands in: bucket
// i holds [i*width, (i+1)*width), and everything from
// width*numBuckets up goes to the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram("lat", 3, 10)
	for _, v := range []int64{0, 9, 10, 19, 20, 29, 30, 1000} {
		h.Add(v)
	}
	for i, want := range []int64{2, 2, 2} {
		if got := h.Count(i); got != want {
			t.Errorf("Count(%d) = %d, want %d", i, got, want)
		}
	}
	if h.Overflow() != 2 {
		t.Errorf("Overflow = %d, want 2", h.Overflow())
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
}

func TestHistogramAccessors(t *testing.T) {
	h := NewHistogram("chain_depth", 4, 1)
	if h.Name() != "chain_depth" || h.NumBuckets() != 4 || h.Width() != 1 {
		t.Fatalf("accessors = %q, %d, %d", h.Name(), h.NumBuckets(), h.Width())
	}
}

// TestHistogramMean checks that the mean is taken over every sample,
// overflow samples included, and reads 0 on an empty histogram.
func TestHistogramMean(t *testing.T) {
	h := NewHistogram("lat", 2, 5)
	if h.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", h.Mean())
	}
	h.Add(1)
	h.Add(4)
	h.Add(100) // overflow
	if got, want := h.Mean(), 35.0; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramBucketLabel(t *testing.T) {
	unit := NewHistogram("depth", 3, 1)
	if got := unit.BucketLabel(2); got != "2" {
		t.Errorf("width-1 BucketLabel(2) = %q, want \"2\"", got)
	}
	wide := NewHistogram("lat", 3, 8)
	if got := wide.BucketLabel(1); got != "[8,16)" {
		t.Errorf("width-8 BucketLabel(1) = %q, want \"[8,16)\"", got)
	}
}

func TestNewHistogramRejectsBadGeometry(t *testing.T) {
	for _, c := range []struct {
		buckets int
		width   int64
	}{
		{0, 1},
		{-1, 1},
		{4, 0},
		{4, -2},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(r.(string), "needs positive buckets") {
					t.Errorf("NewHistogram(%d, %d) panic = %v, want a geometry panic",
						c.buckets, c.width, r)
				}
			}()
			NewHistogram("lat", c.buckets, c.width)
		}()
	}
}

func TestHistogramAddNegativePanics(t *testing.T) {
	h := NewHistogram("lat", 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) must panic")
		}
		if h.Total() != 0 {
			t.Fatalf("a rejected sample was counted: Total = %d", h.Total())
		}
	}()
	h.Add(-1)
}

// TestHistogramSnapshot pins the snapshot's order and names: one entry
// per bucket named by its inclusive upper edge, then overflow, total
// and sum.
func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram("lat", 2, 4)
	h.Add(2)
	h.Add(6)
	h.Add(6)
	h.Add(11)
	want := []KV{
		{Name: "lat_le_3", Value: 1},
		{Name: "lat_le_7", Value: 2},
		{Name: "lat_overflow", Value: 1},
		{Name: "lat_total", Value: 4},
		{Name: "lat_sum", Value: 25},
	}
	got := h.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Snapshot[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

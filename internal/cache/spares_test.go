package cache

import "testing"

// TestSparesReuseCleared pins Get after Put: the spare of the asked
// length comes back, cleared, and a length with no spare is allocated.
func TestSparesReuseCleared(t *testing.T) {
	var s Spares[uint64]
	b := s.Get(1000)
	for i := range b {
		b[i] = uint64(i) + 1
	}
	s.Put(b)
	if got := s.Get(999); &got[0] == &b[0] {
		t.Fatal("a spare of another length was handed out")
	}
	got := s.Get(1000)
	if &got[0] != &b[0] {
		t.Fatal("the spare of the asked length was not reused")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled entry %d holds %d, want 0", i, v)
		}
	}
	if len(s.held) != 0 || s.bytes != 0 {
		t.Fatalf("list holds %d spares (%d bytes) after handing its one out", len(s.held), s.bytes)
	}
}

// TestSparesBounded pins the list's bounds: no more spares of a length
// than one Put handed back, and no more than maxSpareBytes in all, the
// oldest dropped first.
func TestSparesBounded(t *testing.T) {
	var s Spares[byte]
	s.Put(make([]byte, 10), make([]byte, 10), make([]byte, 20))
	s.Put(make([]byte, 10))
	if n := s.count(10); n != 2 {
		t.Fatalf("holds %d spares of length 10; want 2, the most one Put handed back", n)
	}
	big := maxSpareBytes / 2
	first, second := make([]byte, big), make([]byte, big+1)
	s.Put(first)
	s.Put(second)
	if s.bytes > maxSpareBytes {
		t.Fatalf("holds %d bytes, over the %d bound", s.bytes, maxSpareBytes)
	}
	if s.count(big+1) != 1 || s.count(10) != 0 || s.count(20) != 0 {
		t.Fatalf("over the byte bound, the newest spare must stay and the oldest go: held %d", len(s.held))
	}
	if got := s.Get(big); &got[0] == &first[0] {
		t.Fatal("a spare dropped for the byte bound was handed out")
	}
	s.Put(make([]byte, maxSpareBytes+1))
	if s.count(maxSpareBytes+1) != 0 {
		t.Fatal("a slice larger than the whole bound was kept")
	}
}

// TestReleasedArrayPanics pins use after release: an array whose
// storage went back to the free list panics instead of reading lines
// another array now owns, and a second release is a no-op.
func TestReleasedArrayPanics(t *testing.T) {
	a := MustNewArray(Geometry{CapacityBytes: 4096, BlockBytes: 64, Assoc: 4})
	a.Fill(0x40, 0)
	ReleaseArrays(a)
	ReleaseArrays(a)
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup on a released array did not panic")
		}
	}()
	a.Lookup(0x40)
}

package cache

import (
	"testing"

	"nurapid/internal/mathx"
)

func TestMSHRAllocateAndExpire(t *testing.T) {
	m := NewMSHRFile(2)
	if m.Capacity() != 2 {
		t.Fatal("capacity accessor wrong")
	}
	done, ok := m.Allocate(0, 100, 50)
	if !ok || done != 50 {
		t.Fatalf("allocate: done=%d ok=%v", done, ok)
	}
	if m.Outstanding(0) != 1 {
		t.Fatal("one miss must be outstanding")
	}
	if m.Outstanding(50) != 0 {
		t.Fatal("miss must retire at its completion cycle")
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(0, 100, 60)
	done, ok := m.Allocate(5, 100, 90)
	if !ok || done != 60 {
		t.Fatalf("merge must return the original completion 60, got %d ok=%v", done, ok)
	}
	if m.Merges != 1 || m.Allocations != 1 {
		t.Fatalf("merges=%d allocations=%d", m.Merges, m.Allocations)
	}
	if m.Outstanding(10) != 1 {
		t.Fatal("merged request must not consume a second register")
	}
}

func TestMSHRFullStall(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(0, 1, 40)
	m.Allocate(0, 2, 70)
	free, ok := m.Allocate(10, 3, 100)
	if ok {
		t.Fatal("full file must refuse")
	}
	if free != 40 {
		t.Fatalf("earliest free cycle %d, want 40", free)
	}
	if m.FullStalls != 1 {
		t.Fatalf("FullStalls = %d", m.FullStalls)
	}
	// After the first entry retires, allocation succeeds.
	if _, ok := m.Allocate(40, 3, 100); !ok {
		t.Fatal("allocation must succeed once a register frees")
	}
}

func TestMSHRLookup(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(0, 7, 33)
	if done, ok := m.Lookup(7); !ok || done != 33 {
		t.Fatalf("lookup: done=%d ok=%v", done, ok)
	}
	if _, ok := m.Lookup(8); ok {
		t.Fatal("lookup of absent block must fail")
	}
}

func TestMSHRZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewMSHRFile(0)
}

// refMSHR is the map-backed MSHR file the array version replaced, kept
// here as the reference for TestMSHRMatchesMapReference.
type refMSHR struct {
	capacity                        int
	inflight                        map[Addr]int64
	allocations, merges, fullStalls int64
}

func (m *refMSHR) expire(now int64) {
	for a, done := range m.inflight {
		if done <= now {
			delete(m.inflight, a)
		}
	}
}

func (m *refMSHR) outstanding(now int64) int { m.expire(now); return len(m.inflight) }

func (m *refMSHR) lookup(block Addr) (int64, bool) { d, ok := m.inflight[block]; return d, ok }

func (m *refMSHR) earliestDone() int64 {
	earliest := int64(-1)
	for _, d := range m.inflight {
		if earliest < 0 || d < earliest {
			earliest = d
		}
	}
	return earliest
}

func (m *refMSHR) allocate(now int64, block Addr, doneAt int64) (int64, bool) {
	m.expire(now)
	if done, ok := m.inflight[block]; ok {
		m.merges++
		return done, true
	}
	if len(m.inflight) >= m.capacity {
		m.fullStalls++
		return m.earliestDone(), false
	}
	m.inflight[block] = doneAt
	m.allocations++
	return doneAt, true
}

// TestMSHRMatchesMapReference runs a seeded random mix of every query at
// non-decreasing times against the map-backed reference and compares
// every return value and counter.
func TestMSHRMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 8} {
		m := NewMSHRFile(capacity)
		ref := &refMSHR{capacity: capacity, inflight: map[Addr]int64{}}
		rng := mathx.NewRNG(uint64(capacity))
		now := int64(0)
		staleLookups := 0
		for step := 0; step < 20_000; step++ {
			now += rng.Int63n(4)
			// Few distinct blocks, so merges and stale entries are common.
			block := Addr(rng.Intn(2*capacity + 2))
			switch op := rng.Intn(4); op {
			case 0:
				got, gotOK := m.Lookup(block)
				want, wantOK := ref.lookup(block)
				if got != want || gotOK != wantOK {
					t.Fatalf("cap %d step %d: Lookup(%d) = %d,%v, want %d,%v", capacity, step, block, got, gotOK, want, wantOK)
				}
				if wantOK && want <= now {
					staleLookups++
				}
			case 1:
				if got, want := m.Outstanding(now), ref.outstanding(now); got != want {
					t.Fatalf("cap %d step %d: Outstanding(%d) = %d, want %d", capacity, step, now, got, want)
				}
			case 2:
				if got, want := m.EarliestDone(), ref.earliestDone(); got != want {
					t.Fatalf("cap %d step %d: EarliestDone = %d, want %d", capacity, step, got, want)
				}
			default:
				doneAt := now + 1 + rng.Int63n(40)
				got, gotOK := m.Allocate(now, block, doneAt)
				want, wantOK := ref.allocate(now, block, doneAt)
				if got != want || gotOK != wantOK {
					t.Fatalf("cap %d step %d: Allocate(%d, %d, %d) = %d,%v, want %d,%v",
						capacity, step, now, block, doneAt, got, gotOK, want, wantOK)
				}
			}
			if m.Allocations != ref.allocations || m.Merges != ref.merges || m.FullStalls != ref.fullStalls {
				t.Fatalf("cap %d step %d: counters %d/%d/%d, want %d/%d/%d", capacity, step,
					m.Allocations, m.Merges, m.FullStalls, ref.allocations, ref.merges, ref.fullStalls)
			}
		}
		if staleLookups == 0 {
			t.Fatalf("cap %d: no Lookup hit an entry past its fill time", capacity)
		}
	}
}

func TestMSHRLookupDoesNotExpire(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(0, 7, 10)
	// Long past the fill, the entry still matches until something expires it.
	if done, ok := m.Lookup(7); !ok || done != 10 {
		t.Fatalf("stale lookup: done=%d ok=%v, want 10 true", done, ok)
	}
	if m.Outstanding(100) != 0 {
		t.Fatal("Outstanding must expire the finished miss")
	}
	if _, ok := m.Lookup(7); ok {
		t.Fatal("expired entry must no longer match")
	}
	if m.EarliestDone() != -1 {
		t.Fatal("EarliestDone on an empty file must be -1")
	}
}

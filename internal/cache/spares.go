package cache

import (
	"slices"
	"sync"
	"unsafe"
)

// maxSpareBytes bounds the storage one Spares list holds: enough for an
// 8-MB, 128-B-block tag array's lines twice over, far below what a job
// allocates in a campaign.
const maxSpareBytes = 4 << 20

// Spares is a bounded process-wide free list of large slices, matched
// by length. An organization takes its storage with Get when it is
// built and hands it back with Put once its results are harvested, so
// a campaign of jobs reuses the same few megabytes instead of leaving
// each job's arrays to the collector.
//
// The list never holds more spares of one length than a single Put
// (one job's release) has handed back, and never more than
// maxSpareBytes in all: a Put that would exceed it drops the oldest
// spares first. The zero value is ready to use.
type Spares[T any] struct {
	mu    sync.Mutex
	held  [][]T       // oldest first
	limit map[int]int // most slices of a length one Put handed back
	bytes int
}

// Get returns a zeroed slice of length n: the newest spare of that
// length, cleared, or a new one. A recycled slice is indistinguishable
// from a fresh one.
func (s *Spares[T]) Get(n int) []T {
	s.mu.Lock()
	for i := len(s.held) - 1; i >= 0; i-- {
		if b := s.held[i]; len(b) == n {
			s.held = slices.Delete(s.held, i, i+1)
			s.bytes -= sizeOf(b)
			s.mu.Unlock()
			clear(b)
			return b
		}
	}
	s.mu.Unlock()
	return make([]T, n)
}

// Put hands back one job's slices of T. The caller must drop every
// reference to them: the next Get of their length reuses them. Empty
// slices are ignored.
func (s *Spares[T]) Put(batch ...[]T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit == nil {
		s.limit = make(map[int]int)
	}
	for i, b := range batch {
		if len(b) == 0 || sizeOf(b) > maxSpareBytes {
			continue
		}
		n := 0
		for _, o := range batch[:i+1] {
			if len(o) == len(b) {
				n++
			}
		}
		s.limit[len(b)] = max(s.limit[len(b)], n)
		s.held = append(s.held, b)
		s.bytes += sizeOf(b)
		if s.count(len(b)) > s.limit[len(b)] {
			s.drop(slices.IndexFunc(s.held, func(o []T) bool { return len(o) == len(b) }))
		}
	}
	for s.bytes > maxSpareBytes {
		s.drop(0)
	}
}

// count returns how many spares of length n are held.
func (s *Spares[T]) count(n int) int {
	c := 0
	for _, b := range s.held {
		if len(b) == n {
			c++
		}
	}
	return c
}

// drop forgets the i-th held spare.
func (s *Spares[T]) drop(i int) {
	s.bytes -= sizeOf(s.held[i])
	s.held = slices.Delete(s.held, i, i+1)
}

// sizeOf returns the bytes b's backing array occupies.
func sizeOf[T any](b []T) int {
	var zero T
	return cap(b) * int(unsafe.Sizeof(zero))
}

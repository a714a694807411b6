package nurapid

import (
	"fmt"

	"nurapid/internal/cache"
	"nurapid/internal/mathx"
)

// frameMeta is the data-array side of one block frame: the reverse
// pointer (set, way) locating the block's tag entry (paper Sec. 2.2),
// plus a small saturating hit counter used by promotion triggers.
type frameMeta struct {
	valid bool
	set   int32
	way   int8
	hits  uint8 // hits since the block arrived in this d-group
}

// frameStore holds every d-group's data frames in one contiguous block,
// indexed by dense global frame ids:
//
//	gid = group*framesPerGroup + localFrame
//
// Frames within a d-group are divided into partitions to express the
// placement restrictions the paper discusses:
//
//   - unrestricted distance associativity: one partition spanning the
//     whole d-group (any block anywhere);
//   - pointer-restricted placement (Sec. 2.4.3): fixed-size partitions,
//     a block's set selecting its partition;
//   - set-associative placement (the Fig. 4 comparison): one partition
//     per set, holding assoc/nGroups frames.
//
// Each (group, partition) pair — its "home", h = group*nParts + part —
// maintains a free list and an intrusive recency list threaded through
// the shared prev/next slices, so both random and true-LRU distance
// replacement run in O(1) with no per-frame heap nodes and no pointer
// chasing across allocations. Hot-path methods take the home index h
// from the caller (who derives it from the block's set without any
// division); homeOf recomputes it with divisions for audits and tests.
type frameStore struct {
	nGroups        int
	framesPerGroup int
	nParts         int
	partSize       int

	frames []frameMeta

	// Intrusive doubly-linked recency list per home over occupied frames
	// (head = most recent). Free frames are chained through next.
	prev, next       []int32
	lruHead, lruTail []int32 // indexed by home
	freeHead         []int32 // indexed by home
	freeCount        []int32 // indexed by home
}

const nilFrame = int32(-1)

// The process-wide free lists behind every frame store's slices (and
// the caches' partition tables).
var (
	frameSpares cache.Spares[frameMeta]
	int32Spares cache.Spares[int32]
)

// newFrameStore builds a store with every frame free. Its slices come
// from the process-wide free lists when spares of their sizes are held,
// and every entry is written here, so a recycled store is built exactly
// as a fresh one.
func newFrameStore(nGroups, framesPerGroup, nParts, partSize int) frameStore {
	n := nGroups * framesPerGroup
	homes := nGroups * nParts
	s := frameStore{
		nGroups:        nGroups,
		framesPerGroup: framesPerGroup,
		nParts:         nParts,
		partSize:       partSize,
		frames:         frameSpares.Get(n),
		prev:           int32Spares.Get(n),
		next:           int32Spares.Get(n),
		lruHead:        int32Spares.Get(homes),
		lruTail:        int32Spares.Get(homes),
		freeHead:       int32Spares.Get(homes),
		freeCount:      int32Spares.Get(homes),
	}
	for g := 0; g < nGroups; g++ {
		for p := 0; p < nParts; p++ {
			h := g*nParts + p
			s.lruHead[h] = nilFrame
			s.lruTail[h] = nilFrame
			// Chain the partition's frames into its free list in ascending
			// order. Pops are LIFO, so the pinned refmodel contract holds:
			// an untouched partition hands out frames lowest-id first, and
			// a released frame is the next one reused.
			base := int32(g*framesPerGroup + p*partSize)
			s.freeHead[h] = base
			s.freeCount[h] = int32(partSize)
			for i := int32(0); i < int32(partSize); i++ {
				f := base + i
				if i == int32(partSize)-1 {
					s.next[f] = nilFrame
				} else {
					s.next[f] = f + 1
				}
				s.prev[f] = nilFrame
			}
		}
	}
	return s
}

// recycle hands the store's slices back to the free lists, with the
// cache's other int32 slices, as one job's release, and drops them:
// any later use panics.
func (s *frameStore) recycle(more ...[]int32) {
	frameSpares.Put(s.frames)
	int32Spares.Put(append([][]int32{s.prev, s.next, s.lruHead, s.lruTail, s.freeHead, s.freeCount}, more...)...)
	*s = frameStore{}
}

func (s *frameStore) numFrames() int { return len(s.frames) }

// homeOf recomputes the (group, partition) home of a frame from its id.
// It divides; hot paths derive the home from the block's set instead.
func (s *frameStore) homeOf(f int32) int {
	g := int(f) / s.framesPerGroup
	local := int(f) % s.framesPerGroup
	return g*s.nParts + local/s.partSize
}

// partOf returns the partition index of a frame within its d-group.
func (s *frameStore) partOf(f int32) int {
	return (int(f) % s.framesPerGroup) / s.partSize
}

// partBase returns the first frame id of home h's partition.
func (s *frameStore) partBase(h int) int32 {
	g, p := h/s.nParts, h%s.nParts
	return int32(g*s.framesPerGroup + p*s.partSize)
}

// takeFree pops a free frame from home h, or returns nilFrame.
func (s *frameStore) takeFree(h int) int32 {
	f := s.freeHead[h]
	if f == nilFrame {
		return nilFrame
	}
	s.freeHead[h] = s.next[f]
	s.freeCount[h]--
	return f
}

// victim selects an occupied frame of home h to demote; base is the
// partition's first frame id (precomputed by the caller). The caller
// must have exhausted takeFree first, so the partition is full and any
// frame is occupied; random selection is a single draw and LRU is the
// recency-list tail.
func (s *frameStore) victim(h int, base int32, useLRU bool, rng *mathx.RNG) int32 {
	if useLRU {
		f := s.lruTail[h]
		if f == nilFrame {
			panic(fmt.Sprintf("nurapid: d-group %d partition %d has no occupied frames",
				h/s.nParts, h%s.nParts))
		}
		return f
	}
	if s.freeCount[h] != 0 {
		panic(fmt.Sprintf("nurapid: random victim requested while partition %d has free frames",
			h%s.nParts))
	}
	return base + int32(rng.Intn(s.partSize))
}

// occupy installs a block into free frame f of home h and makes it most
// recent.
func (s *frameStore) occupy(f int32, h int, set int32, way int8) {
	if s.frames[f].valid {
		panic("nurapid: occupying a valid frame")
	}
	s.frames[f] = frameMeta{valid: true, set: set, way: way, hits: 0}
	s.lruPush(f, h)
}

// replace swaps the occupant of frame f for a new block, returning the
// old occupant's identity. Recency is refreshed: the incoming block was
// just accessed or just demoted.
func (s *frameStore) replace(f int32, h int, set int32, way int8) (oldSet int32, oldWay int8) {
	m := &s.frames[f]
	if !m.valid {
		panic("nurapid: replacing an empty frame")
	}
	oldSet, oldWay = m.set, m.way
	m.set, m.way = set, way
	m.hits = 0
	s.lruUnlink(f, h)
	s.lruPush(f, h)
	return oldSet, oldWay
}

// release frees frame f of home h (block evicted from the cache or
// promoted away).
func (s *frameStore) release(f int32, h int) {
	if !s.frames[f].valid {
		panic("nurapid: releasing an empty frame")
	}
	s.lruUnlink(f, h)
	s.frames[f].valid = false
	s.next[f] = s.freeHead[h]
	s.freeHead[h] = f
	s.freeCount[h]++
}

// touch marks frame f most recently used in its home.
func (s *frameStore) touch(f int32, h int) {
	s.lruUnlink(f, h)
	s.lruPush(f, h)
}

func (s *frameStore) lruPush(f int32, h int) {
	s.prev[f] = nilFrame
	s.next[f] = s.lruHead[h]
	if s.lruHead[h] != nilFrame {
		s.prev[s.lruHead[h]] = f
	}
	s.lruHead[h] = f
	if s.lruTail[h] == nilFrame {
		s.lruTail[h] = f
	}
}

func (s *frameStore) lruUnlink(f int32, h int) {
	if s.prev[f] != nilFrame {
		s.next[s.prev[f]] = s.next[f]
	} else {
		s.lruHead[h] = s.next[f]
	}
	if s.next[f] != nilFrame {
		s.prev[s.next[f]] = s.prev[f]
	} else {
		s.lruTail[h] = s.prev[f]
	}
	s.prev[f] = nilFrame
	s.next[f] = nilFrame
}

// checkIntegrity validates every home's lists (the auditor's data-array
// half): every occupied frame is on exactly its home's recency list with
// symmetric prev/next pointers and a consistent tail, every free frame
// on its home's free list, and counts agree. It runs in O(frames) with a
// single allocation so Config.Audit can afford it per access.
func (s *frameStore) checkIntegrity() error {
	onLRU := make([]bool, len(s.frames))
	for g := 0; g < s.nGroups; g++ {
		for p := 0; p < s.nParts; p++ {
			h := g*s.nParts + p
			onList := 0
			last := nilFrame
			for f := s.lruHead[h]; f != nilFrame; f = s.next[f] {
				if onLRU[f] {
					return fmt.Errorf("d-group %d partition %d: recency list cycle at %d", g, p, f)
				}
				if !s.frames[f].valid {
					return fmt.Errorf("d-group %d: free frame %d on recency list", g, f)
				}
				if s.homeOf(f) != h {
					return fmt.Errorf("d-group %d: frame %d on wrong partition list %d", g, f, p)
				}
				if s.prev[f] != last {
					return fmt.Errorf("d-group %d partition %d: frame %d prev pointer %d, want %d",
						g, p, f, s.prev[f], last)
				}
				onLRU[f] = true
				last = f
				onList++
			}
			if s.lruTail[h] != last {
				return fmt.Errorf("d-group %d partition %d: recency tail %d, want %d",
					g, p, s.lruTail[h], last)
			}
			free := int32(0)
			for f := s.freeHead[h]; f != nilFrame; f = s.next[f] {
				if s.frames[f].valid {
					return fmt.Errorf("d-group %d: occupied frame %d on free list", g, f)
				}
				if s.homeOf(f) != h {
					return fmt.Errorf("d-group %d: free frame %d on wrong partition list %d", g, f, p)
				}
				free++
				if free > int32(s.partSize) {
					return fmt.Errorf("d-group %d partition %d: free list cycle", g, p)
				}
			}
			if free != s.freeCount[h] {
				return fmt.Errorf("d-group %d partition %d: free count %d, list %d", g, p, s.freeCount[h], free)
			}
			occupied := 0
			base := s.partBase(h)
			for f := base; f < base+int32(s.partSize); f++ {
				if s.frames[f].valid {
					occupied++
				}
			}
			if occupied != onList {
				return fmt.Errorf("d-group %d partition %d: %d occupied frames but %d on recency list",
					g, p, occupied, onList)
			}
			if occupied+int(free) != s.partSize {
				return fmt.Errorf("d-group %d partition %d: %d occupied + %d free != %d",
					g, p, occupied, free, s.partSize)
			}
		}
	}
	return nil
}

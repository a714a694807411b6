package nurapid

import (
	"fmt"

	"nurapid/internal/memsys"
)

// This file is the runtime invariant auditor. The paper's correctness
// argument (Sec. 2.2-2.4) rests on structural invariants the type system
// cannot express:
//
//   - pointer bijection: every valid tag entry's forward pointer names
//     exactly one data frame, and that frame's reverse pointer names the
//     tag entry back — no dangling and no double-mapped frames;
//   - occupancy conservation: a demotion ripple moves blocks between
//     d-groups but never creates or destroys them, so occupied frames
//     always equal valid tag entries, and each partition's occupied plus
//     free frames equal its capacity;
//   - recency-list well-formedness: each partition's intrusive LRU stack
//     is an acyclic, pointer-symmetric chain over exactly its occupied
//     frames, and its free list covers exactly its free frames.
//
// CheckInvariants verifies all of it in O(tags + frames). With
// Config.Audit set, every access re-verifies the full set plus the
// access-level occupancy delta, and the first violation panics.

// CheckInvariants verifies the forward/reverse pointer bijection and the
// internal list structures; tests call it after random operation storms,
// and Config.Audit calls it after every access. It never panics on
// corrupt state — corruption comes back as an error naming the first
// inconsistency found.
func (c *Cache) CheckInvariants() error {
	// Every valid tag entry's forward pointer must land, within its own
	// partition, on a distinct occupied frame whose reverse pointer
	// points back.
	claimed := make([]bool, c.store.numFrames())
	validTags := 0
	for set := 0; set < c.geo.NumSets(); set++ {
		for way := 0; way < c.geo.Assoc; way++ {
			l := c.tags.Line(set, way)
			if !l.Valid {
				continue
			}
			validTags++
			if l.Aux <= 0 || int(l.Aux-1) >= len(claimed) {
				return fmt.Errorf("tag (%d,%d): forward pointer %d out of range", set, way, l.Aux)
			}
			gid := l.Aux - 1
			g, f := c.groupOfGid(gid), gid%int32(c.framesPerGroup)
			if claimed[gid] {
				return fmt.Errorf("frame %d/%d double-mapped; tag (%d,%d) claims an already-claimed frame",
					g, f, set, way)
			}
			claimed[gid] = true
			m := c.store.frames[gid]
			if !m.valid {
				return fmt.Errorf("tag (%d,%d): forward pointer to empty frame %d/%d", set, way, g, f)
			}
			if int(m.set) != set || int(m.way) != way {
				return fmt.Errorf("frame %d/%d reverse pointer (%d,%d) != tag (%d,%d)",
					g, f, m.set, m.way, set, way)
			}
			if c.partition(int32(set)) != c.store.partOf(gid) {
				return fmt.Errorf("tag (%d,%d) placed outside its partition", set, way)
			}
		}
	}
	// Every occupied frame must be claimed by exactly one tag entry;
	// counting both directions establishes the bijection. checkIntegrity
	// covers the per-partition recency/free list structure.
	if err := c.store.checkIntegrity(); err != nil {
		return err
	}
	occupied := 0
	for gid := range c.store.frames {
		if c.store.frames[gid].valid {
			occupied++
			if !claimed[gid] {
				return fmt.Errorf("frame %d/%d occupied but claimed by no tag entry",
					c.groupOfGid(int32(gid)), gid%c.framesPerGroup)
			}
		}
	}
	if occupied != validTags {
		return fmt.Errorf("%d occupied frames but %d valid tags", occupied, validTags)
	}
	return nil
}

// occupiedFrames returns the number of occupied data frames across all
// d-groups, derived from the free-list accounting.
func (c *Cache) occupiedFrames() int {
	n := c.store.numFrames()
	for h := range c.store.freeCount {
		n -= int(c.store.freeCount[h])
	}
	return n
}

// auditedAccess wraps one access with the conservation argument: a hit
// (with or without promotion ripples) moves blocks but conserves total
// occupancy; a miss adds exactly one block, minus one per eviction. It
// then re-verifies the full structural invariants.
//
//nurapid:coldpath
func (c *Cache) auditedAccess(now int64, addr uint64, write bool, core int) memsys.AccessResult {
	occBefore := c.occupiedFrames()
	evBefore := c.hot.evictions
	res := c.access(now, addr, write, core)
	occAfter := c.occupiedFrames()
	want := occBefore
	if !res.Hit {
		want += 1 - int(c.hot.evictions-evBefore)
	}
	if occAfter != want {
		panic(fmt.Sprintf("nurapid: audit: occupancy not conserved across access of %#x: %d -> %d, want %d (hit=%v)",
			addr, occBefore, occAfter, want, res.Hit))
	}
	if err := c.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("nurapid: audit: invariant violated after access of %#x: %v", addr, err))
	}
	return res
}

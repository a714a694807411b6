package nurapid

// This file is the sampled reuse-distance / dead-block predictor behind
// the PredictiveBypass promotion policy and the DeadOnArrival distance
// policy (ROADMAP item 4, after Wang et al.'s reuse-distance copy-backs
// and the dead-block sampling literature).
//
// A small fraction of the tag sets (one in predSampleStride) carries
// shadow tags: an assoc-deep LRU table of recently filled block keys.
// When a shadow entry is evicted without ever having been re-referenced,
// the block behind it was dead on arrival — its signature trains toward
// "dead" in a table of 2-bit saturating counters. When a shadow entry
// *is* re-referenced, its signature trains back toward "live".
// Non-sampled sets pay nothing and consult only the table.
//
// The memory system models no program counters (memsys.Req carries only
// an address), so the signature hashes the block's 64-block region
// instead of a PC: a streaming scan trains its whole footprint through
// the sampled sets the way a PC-indexed table would through the single
// load instruction driving the scan, while a small hot region trains
// "live" independently. This is the documented deviation from the
// per-PC tables of the source papers.
//
// Everything is deterministic (pure function of the access stream) and
// allocation-free after construction; internal/refmodel transcribes the
// same contract in its readable style and the differential harness
// compares the two bit-for-bit.

import "nurapid/internal/cache"

const (
	// predTableEntries is the signature table size; predSigBits addresses
	// it exactly, so predictDead never masks.
	predTableEntries = 1024
	predSigBits      = 10

	// predDeadAt is the counter threshold for a "dead" prediction and
	// predCounterMax the 2-bit saturation ceiling.
	predDeadAt     = 2
	predCounterMax = 3

	// predSampleStride selects the sampled sets: every set whose index is
	// a multiple of the stride carries shadow tags.
	predSampleStride = 16

	// predRegionShift folds predRegionBlocks consecutive blocks into one
	// signature (the PC surrogate discussed above).
	predRegionShift = 6

	// predHashMult is the 64-bit Fibonacci hashing constant; the top
	// predSigBits bits of the product index the table.
	predHashMult = 0x9E3779B97F4A7C15
)

// predSig maps a block key (block address) to its signature-table index.
//
//nurapid:hotpath
func predSig(key uint64) uint32 {
	return uint32(((key >> predRegionShift) * predHashMult) >> (64 - predSigBits))
}

// predictor is the flat, allocation-free implementation. The shadow
// tags are one LRU tag array of rows x assoc one-byte blocks, a row
// (array set) per sampled set, row = set/predSampleStride. A line's Tag
// is the block key and its Aux is 1 once the key has been re-referenced.
// Rows are indexed directly; the array's address mapping is never used.
type predictor struct {
	table  []uint8 // 2-bit saturating dead counters, indexed by predSig
	shadow *cache.Array
}

func newPredictor(numSets, assoc int) *predictor {
	rows := (numSets + predSampleStride - 1) / predSampleStride
	return &predictor{
		table:  make([]uint8, predTableEntries),
		shadow: cache.MustNewArray(cache.Geometry{CapacityBytes: int64(rows * assoc), BlockBytes: 1, Assoc: assoc}),
	}
}

// predictDead reports whether the block behind key is predicted dead on
// arrival / streaming. Callers consult it before observe so the
// prediction never sees the access it is predicting.
//
//nurapid:hotpath
func (p *predictor) predictDead(key uint64) bool {
	return p.table[predSig(key)] >= predDeadAt
}

// observe feeds one access into the sampled shadow tags. Non-sampled
// sets return immediately. In a sampled set, the first re-reference of a
// shadowed key trains its signature "live"; installing over a
// never-referenced victim trains the victim's signature "dead".
//
//nurapid:hotpath
func (p *predictor) observe(set int, key uint64) {
	if set%predSampleStride != 0 {
		return
	}
	row := set / predSampleStride
	if w, hit := p.shadow.FindTag(row, key); hit {
		if l := p.shadow.Line(row, w); l.Aux == 0 {
			l.Aux = 1
			s := predSig(key)
			if p.table[s] > 0 {
				p.table[s]--
			}
		}
		p.shadow.Touch(row, w)
		return
	}
	// Shadow miss: replace the row's first invalid entry, else its LRU.
	w := p.shadow.VictimWay(row)
	l := p.shadow.Line(row, w)
	if l.Valid && l.Aux == 0 {
		s := predSig(l.Tag)
		if p.table[s] < predCounterMax {
			p.table[s]++
		}
	}
	*l = cache.Line{Valid: true, Tag: key}
	p.shadow.Touch(row, w)
}

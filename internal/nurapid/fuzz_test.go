package nurapid

import (
	"encoding/binary"
	"testing"

	"nurapid/internal/cacti"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
)

// decodeConfig turns 12 fuzz bytes into a Config of at most 4 MB, with
// every field free to take values New rejects: a capacity off the MB
// grid, a block size or associativity that is not a power of two, a
// d-group count that does not divide, policy values past the defined
// ones, restrictions and promotion triggers out of range. Bit 1 of
// b[10] scales the capacity by 2^24, to 16–64 TB: at most 8-KB blocks,
// that is at least 2^31 frames, more than int32 frame ids address, so
// New must reject it before allocating. Audit stays off; the fuzz
// target checks the invariants itself.
func decodeConfig(b []byte) Config {
	capacity := int64(1+b[0]&3) << 20
	if b[0]&0x80 != 0 {
		capacity += int64(b[0]>>2&0x1f) << 12
	}
	if b[10]&2 != 0 {
		capacity <<= 24
	}
	return Config{
		CapacityBytes:  capacity,
		BlockBytes:     (1 << (6 + b[1]%8)) + int(b[1]>>7)*96,
		Assoc:          1 + int(b[2]%16),
		NumDGroups:     int(b[3] % 10),
		Promotion:      Promotion(b[4] % 5),
		Distance:       DistancePolicy(b[5] % 4),
		Placement:      Placement(b[6] % 3),
		RestrictFrames: int(int8(b[7])),
		PromoteHits:    int(binary.LittleEndian.Uint16(b[8:])%260) - 2,
		Memoize:        b[10]&1 != 0,
		Seed:           uint64(b[11]),
	}
}

// FuzzNewConfig holds nurapid.New to its contract on decoded configs:
// it either returns an error, or a cache that takes a short storm of
// reads and writes over twice its capacity (hits, promotions, demotion
// chains and evictions) with every access completing no earlier than it
// was issued and CheckInvariants clean afterwards. The seeds are the
// paper's configuration and the audit storm's variants.
func FuzzNewConfig(f *testing.F) {
	f.Add([]byte{1, 1, 7, 4, 1, 0, 0, 0, 0, 0, 0, 1})             // 2 MB, 128-B blocks, 8-way, 4 d-groups
	f.Add([]byte{3, 7, 7, 4, 2, 1, 0, 16, 3, 0, 1, 7})            // 4 MB, 8-KB blocks, restricted, memoized
	f.Add([]byte{3, 7, 7, 4, 3, 2, 1, 0, 2, 0, 0, 3})             // set-associative, predictive, dead-on-arrival
	f.Add([]byte{0x87, 2, 5, 3, 1, 0, 0, 0xff, 0xff, 0xff, 0, 0}) // rejected on every count
	f.Add([]byte{0, 7, 7, 4, 1, 0, 0, 0, 0, 0, 2, 1})             // 16 TB of 8-KB blocks: 2^31 frames
	model := cacti.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 12 {
			return
		}
		cfg := decodeConfig(data)
		c, err := New(cfg, model, memsys.NewMemory(cfg.BlockBytes))
		if err != nil {
			return
		}
		rng := mathx.NewRNG(uint64(data[11]) + 1)
		blocks := int64(c.geo.NumBlocks()) * 2
		now := int64(0)
		for n := 0; n < 2000; n++ {
			addr := uint64(rng.Int63n(blocks)) * uint64(cfg.BlockBytes)
			res := c.Access(memsys.Req{Now: now, Addr: addr, Write: rng.Intn(4) == 0})
			if res.DoneAt < now {
				t.Fatalf("%+v: access %d completed at %d, before issue at %d", cfg, n, res.DoneAt, now)
			}
			now = res.DoneAt + 1
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	})
}

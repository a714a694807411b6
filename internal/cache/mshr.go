package cache

// MSHRFile models a set of miss-status holding registers: the bound on
// outstanding misses below a cache. Requests to a block already in
// flight merge into its entry; when every register holds an unfinished
// miss, new misses must stall — which is how the paper's 8-entry L1 MSHR
// file throttles demand on the L2.
//
// The registers are a fixed-capacity array searched linearly: the file
// is a handful of entries consulted on every L1 miss, so a scan of two
// short parallel slices beats hashing. Entry order carries no meaning;
// every query is a lookup by block or a minimum over completion times.
type MSHRFile struct {
	blocks []Addr  // in-flight block addresses, blocks[:n] live
	dones  []int64 // completion cycle of blocks[i]
	n      int

	Allocations int64
	Merges      int64
	FullStalls  int64
}

// NewMSHRFile creates a file with the given number of registers.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRFile{blocks: make([]Addr, capacity), dones: make([]int64, capacity)}
}

// Capacity returns the number of registers.
func (m *MSHRFile) Capacity() int { return len(m.blocks) }

// Expire retires every miss completed at or before now.
//
//nurapid:hotpath
func (m *MSHRFile) Expire(now int64) {
	for i := 0; i < m.n; {
		if m.dones[i] <= now {
			m.n--
			m.blocks[i], m.dones[i] = m.blocks[m.n], m.dones[m.n]
			continue
		}
		i++
	}
}

// Outstanding returns the number of misses still in flight at now.
//
//nurapid:hotpath
func (m *MSHRFile) Outstanding(now int64) int {
	m.Expire(now)
	return m.n
}

// Lookup reports whether block is already in flight and, if so, when its
// fill completes. It does not expire entries: a block whose fill time
// has passed still matches until an Allocate or Outstanding call
// retires it.
//
//nurapid:hotpath
func (m *MSHRFile) Lookup(block Addr) (doneAt int64, ok bool) {
	for i, b := range m.blocks[:m.n] {
		if b == block {
			return m.dones[i], true
		}
	}
	return 0, false
}

// EarliestDone returns the earliest completion cycle among in-flight
// misses, or -1 when none are outstanding. Callers use it to schedule a
// retry after a full-file stall.
//
//nurapid:hotpath
func (m *MSHRFile) EarliestDone() int64 {
	earliest := int64(-1)
	for _, d := range m.dones[:m.n] {
		if earliest < 0 || d < earliest {
			earliest = d
		}
	}
	return earliest
}

// Allocate records a miss for block completing at doneAt. If the block
// is already in flight the request merges (returning the earlier entry's
// completion). If the file is full it returns the earliest cycle at
// which a register frees, and ok=false.
//
//nurapid:hotpath
func (m *MSHRFile) Allocate(now int64, block Addr, doneAt int64) (effectiveDone int64, ok bool) {
	m.Expire(now)
	if done, exists := m.Lookup(block); exists {
		m.Merges++
		return done, true
	}
	if m.n >= len(m.blocks) {
		m.FullStalls++
		return m.EarliestDone(), false
	}
	m.blocks[m.n], m.dones[m.n] = block, doneAt
	m.n++
	m.Allocations++
	return doneAt, true
}

package workload

// teeBatch is how many instructions one refill draws from the tee's
// source; teeRing is the ring's starting size, comfortably above the
// spread between the readers of a lockstep CMP run, so the ring
// normally never grows.
const (
	teeBatch = 256
	teeRing  = 2048
)

// Tee fans src out to n readers: each reader returns src's whole
// stream, in order, at its own pace, and all of them end where src
// ends. src is read once, in batches, into a ring that holds the
// instructions between the slowest reader and the fastest; the ring
// grows only when the readers drift further apart than it holds. The
// readers share the ring and must be read from one goroutine.
func Tee(src Source, n int) []Source {
	t := &tee{src: src, buf: make([]Instr, teeRing), readers: make([]TeeReader, n)}
	out := make([]Source, n)
	for i := range t.readers {
		t.readers[i].t = t
		out[i] = &t.readers[i]
	}
	return out
}

// tee is the ring the readers of one Tee share. Stream index i lives
// in buf[i mod len(buf)]; the ring holds the indices from the slowest
// reader's position up to end.
type tee struct {
	src     Source
	buf     []Instr // len is a power of two
	end     int64   // stream index one past the newest instruction read from src
	done    bool    // src has ended at end
	high    int64   // most instructions held for the readers at once
	readers []TeeReader
}

// TeeReader is one reader of a Tee.
type TeeReader struct {
	t   *tee
	pos int64 // stream index of the reader's next instruction
}

// Next implements Source.
//
//nurapid:hotpath
func (r *TeeReader) Next() (Instr, bool) {
	t := r.t
	if r.pos == t.end && !t.refill() {
		return Instr{}, false
	}
	in := t.buf[uint64(r.pos)&uint64(len(t.buf)-1)]
	r.pos++
	return in, true
}

// HighWater returns the most instructions the reader's tee has held at
// once: the widest spread between its slowest and fastest readers, plus
// the batch read ahead.
func (r *TeeReader) HighWater() int64 { return r.t.high }

// refill appends up to teeBatch instructions of src to the ring, after
// the one reader at end asked for more. The slots every reader has read
// are reused; the ring doubles only if the slowest reader lags further
// than it holds. It reports whether src yielded any.
//
//nurapid:hotpath
func (t *tee) refill() bool {
	if t.done {
		return false
	}
	lo := t.end
	for i := range t.readers {
		lo = min(lo, t.readers[i].pos)
	}
	if need := t.end - lo + teeBatch; need > int64(len(t.buf)) {
		t.grow(lo, need)
	}
	mask := uint64(len(t.buf) - 1)
	start := t.end
	for t.end-start < teeBatch {
		in, ok := t.src.Next()
		if !ok {
			t.done = true
			break
		}
		t.buf[uint64(t.end)&mask] = in
		t.end++
	}
	t.high = max(t.high, t.end-lo)
	return t.end > start
}

// grow replaces the ring with one of at least need slots, carrying over
// the unread instructions from stream index lo on.
//
//nurapid:coldpath
func (t *tee) grow(lo, need int64) {
	size := len(t.buf)
	for int64(size) < need {
		size *= 2
	}
	buf := make([]Instr, size)
	oldMask, mask := uint64(len(t.buf)-1), uint64(size-1)
	for i := lo; i < t.end; i++ {
		buf[uint64(i)&mask] = t.buf[uint64(i)&oldMask]
	}
	t.buf = buf
}

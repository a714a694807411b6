package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"nurapid/internal/stats"
)

// Trace format: one JSON object per line ("JSONL"), one line per event,
// fields in a fixed order so a fixed-seed run writes byte-identical
// traces:
//
//	{"k":"access","t":12,"addr":268435456,"w":true}
//	{"k":"access","t":12,"addr":268435456,"core":1}
//	{"k":"hit","t":16,"g":0,"lat":14}
//	{"k":"miss","t":20,"addr":268436480}
//	{"k":"place","t":20,"g":1,"depth":1}
//	{"k":"promote","t":24,"from":2,"g":1}
//	{"k":"demote","t":24,"from":1,"g":2,"depth":1}
//	{"k":"evict","t":20,"g":3,"d":true}
//	{"k":"swap","t":24,"lat":4}
//	{"k":"enqueue","t":30,"addr":268435456,"bank":2,"depth":1,"w":true,"core":1}
//	{"k":"issue","t":34,"bank":2,"lat":4,"core":1}
//	{"k":"inval","t":48,"addr":268435456,"core":1}
//	{"k":"bypass","t":52,"g":1}
//
// Only the fields meaningful for each kind are written; "w" and "d"
// are omitted when false, "depth" on enqueue lines when 0, and "core"
// when 0 (single-core runs keep their pre-CMP byte format; the
// queue-side kinds appear only in CMP traces). cmd/nurapidtrace (or
// any JSONL tool) reads the stream back.

// TraceSink is a buffered JSONL trace writer probe. It is not safe for
// concurrent use: attach one sink per simulated run (sim.WithTrace does
// exactly that). Close flushes the buffer and closes the underlying
// writer; the first write error is latched and returned from Close.
type TraceSink struct {
	w      *bufio.Writer
	c      io.Closer
	buf    []byte
	err    error
	events int64
}

// NewTraceSink builds a trace sink over w. When w is also an io.Closer
// (a file), Close closes it.
func NewTraceSink(w io.Writer) *TraceSink {
	s := &TraceSink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 128)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Probe: it appends one JSONL line for the event.
func (s *TraceSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = appendEvent(s.buf[:0], e)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
		return
	}
	s.events++
}

// Err returns the first write error, if any.
func (s *TraceSink) Err() error { return s.err }

// Close flushes buffered events and closes the underlying writer.
func (s *TraceSink) Close() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Snapshot emits the sink's write statistics (statsreg convention:
// every counter field must appear here).
func (s *TraceSink) Snapshot() []stats.KV {
	return []stats.KV{{Name: "trace_events", Value: float64(s.events)}}
}

// appendEvent renders e as one JSONL line. Hand-rolled so the hot
// tracing path allocates nothing beyond the reused buffer and the field
// order is fixed (deterministic traces for a fixed seed).
func appendEvent(b []byte, e Event) []byte {
	b = append(b, `{"k":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, e.Now, 10)
	switch e.Kind {
	case KindAccess:
		b = append(b, `,"addr":`...)
		b = strconv.AppendUint(b, e.Addr, 10)
		if e.Write {
			b = append(b, `,"w":true`...)
		}
		// Core 0 (every single-core run) is omitted, keeping fixed-seed
		// single-core traces byte-identical to the pre-CMP format.
		if e.Core != 0 {
			b = append(b, `,"core":`...)
			b = strconv.AppendInt(b, int64(e.Core), 10)
		}
	case KindHit:
		b = appendGroup(b, e.Group)
		b = append(b, `,"lat":`...)
		b = strconv.AppendInt(b, e.Lat, 10)
	case KindMiss:
		b = append(b, `,"addr":`...)
		b = strconv.AppendUint(b, e.Addr, 10)
	case KindPlace:
		b = appendGroup(b, e.Group)
		b = append(b, `,"depth":`...)
		b = strconv.AppendInt(b, int64(e.Depth), 10)
	case KindPromote:
		b = appendFrom(b, e.From)
		b = appendGroup(b, e.Group)
	case KindDemote:
		b = appendFrom(b, e.From)
		b = appendGroup(b, e.Group)
		b = append(b, `,"depth":`...)
		b = strconv.AppendInt(b, int64(e.Depth), 10)
	case KindEvict:
		b = appendGroup(b, e.Group)
		if e.Dirty {
			b = append(b, `,"d":true`...)
		}
	case KindSwap:
		b = append(b, `,"lat":`...)
		b = strconv.AppendInt(b, e.Lat, 10)
	case KindEnqueue:
		b = append(b, `,"addr":`...)
		b = strconv.AppendUint(b, e.Addr, 10)
		b = append(b, `,"bank":`...)
		b = strconv.AppendInt(b, int64(e.Group), 10)
		if e.Depth != 0 {
			b = append(b, `,"depth":`...)
			b = strconv.AppendInt(b, int64(e.Depth), 10)
		}
		if e.Write {
			b = append(b, `,"w":true`...)
		}
		b = appendCore(b, e.Core)
	case KindIssue:
		b = append(b, `,"bank":`...)
		b = strconv.AppendInt(b, int64(e.Group), 10)
		b = append(b, `,"lat":`...)
		b = strconv.AppendInt(b, e.Lat, 10)
		b = appendCore(b, e.Core)
	case KindInval:
		b = append(b, `,"addr":`...)
		b = strconv.AppendUint(b, e.Addr, 10)
		b = appendCore(b, e.Core)
	case KindBypass:
		b = appendGroup(b, e.Group)
	}
	return append(b, '}', '\n')
}

// appendCore writes the core field with the same omit-zero convention
// the access line uses.
func appendCore(b []byte, core int16) []byte {
	if core == 0 {
		return b
	}
	b = append(b, `,"core":`...)
	return strconv.AppendInt(b, int64(core), 10)
}

func appendGroup(b []byte, g int16) []byte {
	b = append(b, `,"g":`...)
	return strconv.AppendInt(b, int64(g), 10)
}

func appendFrom(b []byte, g int16) []byte {
	b = append(b, `,"from":`...)
	return strconv.AppendInt(b, int64(g), 10)
}

// wireEvent mirrors the JSONL field set for decoding.
type wireEvent struct {
	K     string `json:"k"`
	T     int64  `json:"t"`
	Addr  uint64 `json:"addr"`
	Core  int16  `json:"core"`
	G     int16  `json:"g"`
	Bank  int16  `json:"bank"`
	From  int16  `json:"from"`
	Depth uint8  `json:"depth"`
	W     bool   `json:"w"`
	D     bool   `json:"d"`
	Lat   int64  `json:"lat"`
}

// DecodeTrace reads a JSONL trace from r, calling fn for every event in
// stream order. Blank lines are skipped; a malformed line, an unknown
// kind, or a negative id (core, group, bank) or cycle count aborts with
// an error naming the line number, so every decoded event is safe to
// feed to the aggregating probes, which index by id.
func DecodeTrace(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var w wireEvent
		if err := json.Unmarshal(line, &w); err != nil {
			return fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		e, err := w.event()
		if err != nil {
			return fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// event reconstructs the canonical Event, restoring the -1 sentinels
// the encoder omitted for not-applicable group fields.
func (w wireEvent) event() (Event, error) {
	k, ok := KindByName(w.K)
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", w.K)
	}
	// The encoder never writes a negative field, and a field a kind
	// does not carry decodes as 0, so one check covers every kind.
	if w.Core < 0 || w.G < 0 || w.Bank < 0 || w.From < 0 {
		return Event{}, fmt.Errorf("%s event with a negative id (core %d, g %d, bank %d, from %d)",
			w.K, w.Core, w.G, w.Bank, w.From)
	}
	if w.T < 0 || w.Lat < 0 {
		return Event{}, fmt.Errorf("%s event with a negative cycle count (t %d, lat %d)", w.K, w.T, w.Lat)
	}
	switch k {
	case KindAccess:
		return Access(w.T, w.Addr, w.W, int(w.Core)), nil
	case KindHit:
		return Hit(w.T, int(w.G), w.Lat), nil
	case KindMiss:
		return Miss(w.T, w.Addr), nil
	case KindPlace:
		return Place(w.T, int(w.G), int(w.Depth)), nil
	case KindPromote:
		return Promote(w.T, int(w.From), int(w.G)), nil
	case KindDemote:
		return DemoteLink(w.T, int(w.From), int(w.G), int(w.Depth)), nil
	case KindEvict:
		return Evict(w.T, int(w.G), w.D), nil
	case KindSwap:
		return SwapBacklog(w.T, w.Lat), nil
	case KindEnqueue:
		return Enqueue(w.T, w.Addr, int(w.Bank), int(w.Core), w.W, int(w.Depth)), nil
	case KindIssue:
		return Issue(w.T, int(w.Bank), int(w.Core), w.Lat), nil
	case KindInval:
		return Inval(w.T, w.Addr, int(w.Core)), nil
	case KindBypass:
		return Bypass(w.T, int(w.G)), nil
	}
	return Event{}, fmt.Errorf("unhandled event kind %q", w.K)
}

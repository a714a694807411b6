package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace file format (little endian):
//
//	magic   [4]byte  "NRT1"
//	nameLen uint8
//	name    [nameLen]byte
//	count   uint64   number of records
//	records count x {
//	    kindAndFlags uint8   // low 2 bits Kind, bit 7 Mispredicted
//	    pc           uint64
//	    addr         uint64  // present only for Load/Store
//	}
//
// The format favors simplicity over compression; a 2M-instruction trace
// is ~20 MB.

var traceMagic = [4]byte{'N', 'R', 'T', '1'}

const mispredictFlag = 0x80

// TraceWriter streams instructions to a trace file.
type TraceWriter struct {
	w     *bufio.Writer
	count uint64
	// countPos is unknown for non-seekable writers, so the count is
	// written up front by the caller via NewTraceWriter's expected
	// count... instead we write count at Close via the saved seeker, or
	// require the caller to declare it. To stay io.Writer-friendly the
	// count is declared up front.
	declared uint64
}

// NewTraceWriter starts a trace with the app name and a declared record
// count. Writing a different number of records makes Close fail.
func NewTraceWriter(w io.Writer, name string, count uint64) (*TraceWriter, error) {
	if len(name) > 255 {
		return nil, errors.New("workload: trace name too long")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	if err := binary.Write(bw, binary.LittleEndian, count); err != nil {
		return nil, err
	}
	return &TraceWriter{w: bw, declared: count}, nil
}

// Write appends one instruction record.
func (t *TraceWriter) Write(in Instr) error {
	if t.count >= t.declared {
		return fmt.Errorf("workload: trace already holds the declared %d records", t.declared)
	}
	flags := byte(in.Kind)
	if in.Mispredicted {
		flags |= mispredictFlag
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	if err := binary.Write(t.w, binary.LittleEndian, in.PC); err != nil {
		return err
	}
	if in.Kind == Load || in.Kind == Store {
		if err := binary.Write(t.w, binary.LittleEndian, in.Addr); err != nil {
			return err
		}
	}
	t.count++
	return nil
}

// Close flushes the trace and verifies the declared count was honored.
func (t *TraceWriter) Close() error {
	if t.count != t.declared {
		return fmt.Errorf("workload: trace declared %d records but wrote %d", t.declared, t.count)
	}
	return t.w.Flush()
}

// Capture records n instructions from src into w as a trace.
func Capture(w io.Writer, name string, src Source, n int64) error {
	tw, err := NewTraceWriter(w, name, uint64(n))
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		in, ok := src.Next()
		if !ok {
			return fmt.Errorf("workload: source exhausted after %d of %d records", i, n)
		}
		if err := tw.Write(in); err != nil {
			return err
		}
	}
	return tw.Close()
}

// TraceReader replays a trace file as a Source.
type TraceReader struct {
	r     *bufio.Reader
	name  string
	count uint64
	read  uint64
	err   error
}

// NewTraceReader validates the header and prepares for replay.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", magic)
	}
	nameLen, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	return &TraceReader{r: br, name: string(name), count: count}, nil
}

// Name returns the application name recorded in the trace.
func (t *TraceReader) Name() string { return t.name }

// Count returns the number of records the trace declares.
func (t *TraceReader) Count() uint64 { return t.count }

// Err returns the first decode error encountered, if any. It is nil
// after the last declared record was decoded, and non-nil when the
// stream ended or broke before that: a truncated or corrupt trace must
// not pass for a shorter one.
func (t *TraceReader) Err() error { return t.err }

// Next implements Source.
func (t *TraceReader) Next() (Instr, bool) {
	if t.err != nil || t.read >= t.count {
		return Instr{}, false
	}
	in, err := t.decode()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header declared this record
		}
		t.err = fmt.Errorf("workload: trace record %d of %d: %w", t.read, t.count, err)
		return Instr{}, false
	}
	t.read++
	return in, true
}

// decode reads one record.
func (t *TraceReader) decode() (Instr, error) {
	var in Instr
	flags, err := t.r.ReadByte()
	if err != nil {
		return in, err
	}
	in.Kind = Kind(flags &^ mispredictFlag)
	in.Mispredicted = flags&mispredictFlag != 0
	if in.Kind > Branch {
		return in, fmt.Errorf("corrupt record kind %d", in.Kind)
	}
	if err := binary.Read(t.r, binary.LittleEndian, &in.PC); err != nil {
		return in, err
	}
	if in.Kind == Load || in.Kind == Store {
		if err := binary.Read(t.r, binary.LittleEndian, &in.Addr); err != nil {
			return in, err
		}
	}
	return in, nil
}

var _ Source = (*TraceReader)(nil)

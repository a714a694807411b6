package workload

import (
	"bytes"
	"testing"
)

// FuzzTraceReader checks the binary trace reader on arbitrary bytes:
// it never panics, never yields more records than the header declares,
// and reports a nil Err only when every declared record was decoded —
// a truncated or corrupt trace never passes for a shorter one.
func FuzzTraceReader(f *testing.F) {
	app, _ := ByName("applu")
	var whole bytes.Buffer
	if err := Capture(&whole, app.Name, MustNewGenerator(app, 1), 64); err != nil {
		f.Fatal(err)
	}
	raw := whole.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)-3])          // truncated mid-record
	f.Add(raw[:4+1+len(app.Name)+8]) // header only
	corrupt := bytes.Clone(raw)
	corrupt[4+1+len(app.Name)+8] = 0x05 // first record's kind
	f.Add(corrupt)
	f.Add([]byte("NRT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var records uint64
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			records++
			if records > r.Count() {
				t.Fatalf("decoded %d records, header declares %d", records, r.Count())
			}
		}
		if r.Err() == nil && records != r.Count() {
			t.Fatalf("nil Err after %d of %d declared records", records, r.Count())
		}
		if r.Err() != nil && records == r.Count() {
			t.Fatalf("every declared record decoded, yet Err = %v", r.Err())
		}
	})
}

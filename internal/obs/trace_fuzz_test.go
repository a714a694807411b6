package obs

import (
	"bytes"
	"testing"

	"nurapid/internal/stats"
)

// FuzzDecodeTrace checks the JSONL reader behind cmd/nurapidtrace on
// arbitrary bytes: decoding never panics, and neither does feeding
// every decoded event to the aggregating probes (with and without a
// latency profile) and then flushing and snapshotting them.
func FuzzDecodeTrace(f *testing.F) {
	var whole []byte
	for _, e := range canonicalEvents() {
		line := appendEvent(nil, e)
		f.Add(line)
		whole = append(whole, line...)
	}
	f.Add(whole)
	for _, line := range malformedTraceLines {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		coll := NewCollector()
		samp := NewSampler("occupancy", 64)
		ts := NewTimeSeries("ts", 64)
		profiled := NewTimeSeries("wf", 64)
		profiled.SetProfile(LatencyProfile{TagCycles: 4, MemCycles: 100})
		probe := Multi(coll, samp, ts, profiled)
		_ = DecodeTrace(bytes.NewReader(data), func(e Event) error {
			probe.Emit(e)
			return nil
		})
		ts.Flush()
		profiled.Flush()
		for _, p := range []interface{ Snapshot() []stats.KV }{coll, samp, ts, profiled} {
			p.Snapshot()
		}
	})
}

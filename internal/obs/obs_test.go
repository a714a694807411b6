package obs

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// canonicalEvents covers every kind with its meaningful fields set.
func canonicalEvents() []Event {
	return []Event{
		Access(12, 0x1000_0000, true, 0),
		Access(16, 0x1000_0080, false, 0),
		Hit(16, 0, 14),
		Miss(20, 0x2000_0000),
		Place(20, 1, 1),
		Promote(24, 2, 1),
		DemoteLink(24, 1, 2, 1),
		Evict(20, 3, true),
		Evict(28, 0, false),
		SwapBacklog(24, 4),
		Enqueue(30, 0x1000_0000, 2, 1, true, 1),
		Issue(34, 2, 1, 4),
		Inval(48, 0x1000_0000, 1),
		Bypass(52, 1),
	}
}

// TestTraceQueueKindBytes pins the queue-side kinds' JSONL encodings,
// including the omit-default conventions: "depth" 0 and "w" false drop
// from enqueue lines, "core" 0 from all three.
func TestTraceQueueKindBytes(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Enqueue(30, 268435456, 2, 1, true, 1),
			`{"k":"enqueue","t":30,"addr":268435456,"bank":2,"depth":1,"w":true,"core":1}`},
		{Enqueue(30, 268435456, 0, 0, false, 0),
			`{"k":"enqueue","t":30,"addr":268435456,"bank":0}`},
		{Issue(34, 2, 1, 4), `{"k":"issue","t":34,"bank":2,"lat":4,"core":1}`},
		{Issue(34, 0, 0, 0), `{"k":"issue","t":34,"bank":0,"lat":0}`},
		{Inval(48, 268435456, 1), `{"k":"inval","t":48,"addr":268435456,"core":1}`},
		{Inval(48, 268435456, 0), `{"k":"inval","t":48,"addr":268435456}`},
	}
	for _, c := range cases {
		got := string(bytes.TrimRight(appendEvent(nil, c.e), "\n"))
		if got != c.want {
			t.Errorf("encoding mismatch:\n got %s\nwant %s", got, c.want)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Fatalf("unknown kind stringer = %q", Kind(200).String())
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("KindByName accepted a bogus name")
	}
}

// TestEventSize pins the overhead contract's fixed 48-byte event: the
// port stamps live in what was padding after the flags.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Fatalf("obs.Event is %d bytes, want 48", got)
	}
}

// TestTraceRoundTrip pins the JSONL encoding and checks decode restores
// every canonical event exactly.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewTraceSink(&buf)
	events := canonicalEvents()
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if kv := sink.Snapshot(); len(kv) != 1 || kv[0].Name != "trace_events" || kv[0].Value != float64(len(events)) {
		t.Fatalf("sink snapshot %+v, want trace_events = %d", kv, len(events))
	}
	// The port stamps are not part of the trace format.
	for _, e := range []Event{Hit(16, 0, 14), Miss(20, 0x10000400)} {
		if got, want := appendEvent(nil, e.Stamp(3, 1)), appendEvent(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("stamped %v encodes as %s, want %s", e.Kind, got, want)
		}
	}

	wantFirst := `{"k":"access","t":12,"addr":268435456,"w":true}`
	if got := strings.SplitN(buf.String(), "\n", 2)[0]; got != wantFirst {
		t.Fatalf("first trace line\n got %s\nwant %s", got, wantFirst)
	}

	var back []Event
	if err := DecodeTrace(bytes.NewReader(buf.Bytes()), func(e Event) error {
		back = append(back, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(back), len(events))
	}
	for i, e := range events {
		if back[i] != e {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, back[i], e)
		}
	}
}

// malformedTraceLines are lines DecodeTrace must reject: garbage, an
// unknown kind, and every negative id or cycle count the aggregating
// probes would otherwise index or histogram with.
var malformedTraceLines = []string{
	`{"k":"noevent","t":1}`,
	`not json`,
	`{"k":"hit","t":1,"g":-5,"lat":3}`,
	`{"k":"place","t":1,"g":-3,"depth":0}`,
	`{"k":"evict","t":1,"g":-9}`,
	`{"k":"promote","t":1,"from":-2,"g":0}`,
	`{"k":"bypass","t":1,"g":-1}`,
	`{"k":"access","t":1,"addr":4096,"core":-2}`,
	`{"k":"inval","t":1,"addr":4096,"core":-1}`,
	`{"k":"enqueue","t":1,"addr":4096,"bank":-4}`,
	`{"k":"issue","t":1,"bank":0,"lat":4,"core":-3}`,
	`{"k":"hit","t":1,"g":0,"lat":-3}`,
	`{"k":"issue","t":1,"bank":0,"lat":-4}`,
	`{"k":"access","t":-1,"addr":4096}`,
}

func TestDecodeTraceRejectsGarbage(t *testing.T) {
	for _, line := range malformedTraceLines {
		// The bad line comes second, so the error must name line 2.
		trace := `{"k":"swap","t":1,"lat":2}` + "\n" + line + "\n"
		err := DecodeTrace(strings.NewReader(trace), func(Event) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: err = %v, want a line-2 error", line, err)
		}
	}
	// Blank lines are fine.
	n := 0
	if err := DecodeTrace(strings.NewReader("\n{\"k\":\"swap\",\"t\":1,\"lat\":2}\n\n"), func(Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("decoded %d events, want 1", n)
	}
}

// TestCollectorAggregation feeds a synthetic run and checks counters,
// histograms, and per-group hits.
func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()
	// Two accesses: one hit in group 1 at 30 cycles, one miss whose
	// placement rippled through two demotion links after an eviction.
	c.Emit(Access(0, 0x100, false, 0))
	c.Emit(Hit(0, 1, 30))
	c.Emit(Access(4, 0x200, true, 0))
	c.Emit(Miss(4, 0x200))
	c.Emit(Evict(4, 3, true))
	c.Emit(DemoteLink(4, 0, 1, 1))
	c.Emit(DemoteLink(4, 1, 2, 2))
	c.Emit(Place(4, 2, 2))
	c.Emit(SwapBacklog(4, 4))

	ctrs := c.Counters()
	for name, want := range map[string]int64{
		"accesses": 2, "writes": 1, "hits": 1, "misses": 1,
		"placements": 1, "demotions": 2, "evictions": 1,
		"dirty_evictions": 1, "swap_backlogs": 1, "swap_backlog_cycles": 4,
	} {
		if got := ctrs.Get(name); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := c.ChainDepth().Count(2); got != 1 {
		t.Errorf("chain depth bucket 2 = %d, want 1", got)
	}
	if got := c.ChainDepth().Total(); got != 1 {
		t.Errorf("chain depth total = %d, want 1", got)
	}
	if got := c.HitLatency().Count(30 / 8); got != 1 {
		t.Errorf("hit latency bucket = %d, want 1", got)
	}
	hits := c.GroupHits()
	if len(hits) != 2 || hits[1] != 1 {
		t.Errorf("group hits = %v, want [0 1]", hits)
	}
	if len(c.Snapshot()) == 0 {
		t.Error("empty collector snapshot")
	}
}

// TestSamplerOccupancy checks the occupancy reconstruction and epoch
// sampling against a hand-traced movement sequence.
func TestSamplerOccupancy(t *testing.T) {
	s := NewSampler("occ", 2)
	// Fill: two blocks into group 0.
	s.Emit(Place(0, 0, 0))
	s.Emit(Place(1, 0, 0))
	// Miss chain: eviction frees group 2, demotion link 0->1 is
	// neutral, the chain's final install lands in group 1.
	s.Emit(Evict(2, 2, false))
	s.Emit(DemoteLink(2, 0, 1, 1))
	s.Emit(Place(2, 1, 1))
	// Promotion: block leaves group 1, re-placed into group 0.
	s.Emit(Promote(3, 1, 0))
	s.Emit(Place(3, 0, 0))

	want := []int64{3, 0, -1}
	got := s.Occupancy()
	if len(got) != len(want) {
		t.Fatalf("occupancy %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occupancy %v, want %v", got, want)
		}
	}

	if s.NumSamples() != 0 {
		t.Fatalf("samples before any access = %d", s.NumSamples())
	}
	s.Emit(Access(4, 0x1, false, 0))
	s.Emit(Access(5, 0x2, false, 0))
	s.Emit(Access(6, 0x3, false, 0))
	if s.NumSamples() != 1 {
		t.Fatalf("samples after one epoch = %d, want 1", s.NumSamples())
	}
	samp := s.Sample(0)
	if samp[0] != 3 {
		t.Fatalf("sample 0 = %v", samp)
	}
	if s.EpochAccesses() != 2 || s.Name() != "occ" || s.NumGroups() != 3 {
		t.Fatal("sampler accessors wrong")
	}
	if len(s.Snapshot()) == 0 {
		t.Fatal("empty sampler snapshot")
	}
	if NewSampler("d", 0).EpochAccesses() != DefaultEpochAccesses {
		t.Fatal("default epoch not applied")
	}
}

// TestMulti checks fan-out order, nil skipping, and collapsing.
func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must be nil")
	}
	c := NewCollector()
	if Multi(nil, c) != Probe(c) {
		t.Fatal("single-probe Multi must collapse")
	}
	s := NewSampler("occ", 0)
	m := Multi(c, nil, s)
	m.Emit(Place(0, 0, 0))
	if c.Counters().Get("placements") != 1 || s.Occupancy()[0] != 1 {
		t.Fatal("Multi did not fan out")
	}
}

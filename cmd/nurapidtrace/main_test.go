package main

import (
	"strings"
	"testing"

	"nurapid/internal/obs"
)

// TestReportEmptyTrace pins the degenerate-input contract: an empty
// JSONL trace still renders every table (headers only) and returns an
// error naming the problem, so the CLI exits non-zero instead of
// passing off a headers-only report as a successful analysis.
func TestReportEmptyTrace(t *testing.T) {
	for _, csv := range []bool{false, true} {
		var out strings.Builder
		err := report(&out, "empty.jsonl", strings.NewReader(""), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, csv)
		if err == nil {
			t.Fatalf("csv=%v: empty trace must return an error", csv)
		}
		if !strings.Contains(err.Error(), "empty trace") {
			t.Fatalf("csv=%v: error %q does not name the empty trace", csv, err)
		}
		want := "event counters" // text table title
		if csv {
			want = "counter,count" // CSV header row
		}
		if !strings.Contains(out.String(), want) {
			t.Fatalf("csv=%v: headers-only report not rendered:\n%s", csv, out.String())
		}
	}
}

// TestReportTruncatedTrace feeds a trace cut off mid-record: the events
// before the cut must still be aggregated and rendered, and the decode
// failure must surface as a clear non-nil error (no panic).
func TestReportTruncatedTrace(t *testing.T) {
	trace := `{"k":"access","t":0,"addr":4096}
{"k":"hit","t":0,"g":1,"lat":21}
{"k":"access","t":30,"ad`
	var out strings.Builder
	err := report(&out, "trunc.jsonl", strings.NewReader(trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false)
	if err == nil {
		t.Fatal("truncated trace must return an error")
	}
	if !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("error %q does not flag the truncation", err)
	}
	if !strings.Contains(err.Error(), "2 events decoded") {
		t.Fatalf("error %q does not report the decoded prefix length", err)
	}
	got := out.String()
	// The two whole records before the cut must be in the report.
	if !strings.Contains(got, "access") || !strings.Contains(got, "hit") {
		t.Fatalf("prefix events missing from the report:\n%s", got)
	}
}

// TestReportWholeTrace guards the happy path around the new error
// returns: a complete trace reports no error.
func TestReportWholeTrace(t *testing.T) {
	trace := `{"k":"access","t":0,"addr":4096}
{"k":"miss","t":0,"addr":4096}
{"k":"place","t":0,"g":3}
`
	var out strings.Builder
	if err := report(&out, "ok.jsonl", strings.NewReader(trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false); err != nil {
		t.Fatalf("complete trace reported error: %v", err)
	}
	if !strings.Contains(out.String(), "place") {
		t.Fatalf("events missing from report:\n%s", out.String())
	}
}

// TestReportCMPEmptyTrace pins that an empty trace has no mode: with no
// queue-side events to select the CMP report, it renders the
// single-core headers, never the contention tables, and still errors.
func TestReportCMPEmptyTrace(t *testing.T) {
	var out strings.Builder
	err := report(&out, "empty.jsonl", strings.NewReader(""), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false)
	if err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("err = %v, want an empty-trace error", err)
	}
	if got := out.String(); !strings.Contains(got, "d-group occupancy") || strings.Contains(got, "per-bank contention") {
		t.Fatalf("empty trace must render the single-core headers only:\n%s", got)
	}
}

// TestReportPicksModeFromTrace checks the report is chosen by what the
// trace carries: a queued (CMP) trace renders the per-bank tables and
// no occupancy timeline, a single-core trace the occupancy timeline and
// no per-bank tables.
func TestReportPicksModeFromTrace(t *testing.T) {
	for _, tc := range []struct {
		name, trace, want, notWant string
	}{
		{"queued", `{"k":"enqueue","t":0,"addr":4096,"bank":1,"depth":1}
{"k":"issue","t":4,"bank":1,"lat":4}
{"k":"access","t":4,"addr":4096}
{"k":"hit","t":4,"g":1,"lat":21}
`, "per-bank contention", "d-group occupancy"},
		{"single-core", `{"k":"access","t":0,"addr":4096}
{"k":"hit","t":0,"g":1,"lat":21}
`, "d-group occupancy", "per-bank contention"},
	} {
		var out strings.Builder
		if err := report(&out, tc.name, strings.NewReader(tc.trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := out.String(); !strings.Contains(got, tc.want) || strings.Contains(got, tc.notWant) {
			t.Fatalf("%s: want %q and no %q in:\n%s", tc.name, tc.want, tc.notWant, got)
		}
	}
}

// TestReportCSVPicksModeFromTrace is TestReportPicksModeFromTrace for
// -csv, keyed on the header rows: the per-core breakdown for a queued
// trace, the per-d-group hits for a single-core one.
func TestReportCSVPicksModeFromTrace(t *testing.T) {
	const coreHdr, groupHdr = "core,accesses,hits,invals,qwait", "dgroup,hits"
	for _, tc := range []struct {
		name, trace, want, notWant string
	}{
		{"queued", `{"k":"enqueue","t":0,"addr":4096,"bank":1,"depth":1}
{"k":"issue","t":4,"bank":1,"lat":4}
{"k":"access","t":4,"addr":4096}
{"k":"hit","t":4,"g":1,"lat":21}
`, coreHdr, groupHdr},
		{"single-core", `{"k":"access","t":0,"addr":4096}
{"k":"hit","t":0,"g":1,"lat":21}
`, groupHdr, coreHdr},
	} {
		var out strings.Builder
		if err := report(&out, tc.name, strings.NewReader(tc.trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, true); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := out.String(); !strings.Contains(got, tc.want) || strings.Contains(got, tc.notWant) {
			t.Fatalf("%s: want %q and no %q in:\n%s", tc.name, tc.want, tc.notWant, got)
		}
	}
}

// TestReportCMPTruncatedTrace checks the truncation contract on a CMP
// trace: the decoded prefix still renders, the error names the
// cut.
func TestReportCMPTruncatedTrace(t *testing.T) {
	trace := `{"k":"enqueue","t":0,"addr":4096,"bank":1,"depth":1}
{"k":"issue","t":4,"bank":1,"lat":4}
{"k":"access","t":4,"ad`
	var out strings.Builder
	err := report(&out, "trunc.jsonl", strings.NewReader(trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false)
	if err == nil {
		t.Fatal("truncated trace must return an error")
	}
	if !strings.Contains(err.Error(), "truncated or corrupt") {
		t.Fatalf("error %q does not flag the truncation", err)
	}
	if !strings.Contains(err.Error(), "2 events decoded") {
		t.Fatalf("error %q does not report the decoded prefix length", err)
	}
	if !strings.Contains(out.String(), "enqueues") {
		t.Fatalf("prefix events missing from the report:\n%s", out.String())
	}
}

// TestReportCMPWholeTrace drives one full queued access window through
// the report and checks the contention tables reflect it: the
// enqueue lands in bank 1's row with its queue wait, the access and
// shoot-down land in the per-core breakdown.
func TestReportCMPWholeTrace(t *testing.T) {
	trace := `{"k":"enqueue","t":0,"addr":4096,"bank":1,"depth":1,"w":true,"core":1}
{"k":"issue","t":4,"bank":1,"lat":4,"core":1}
{"k":"access","t":4,"addr":4096,"w":true,"core":1}
{"k":"hit","t":4,"g":1,"lat":21}
{"k":"inval","t":25,"addr":4096}
`
	var out strings.Builder
	if err := report(&out, "ok.jsonl", strings.NewReader(trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false); err != nil {
		t.Fatalf("complete trace reported error: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"per-core latency breakdown",
		"per-bank contention",
		"queue wait per bank",
		"queue-depth high-water mark per bank",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("table %q missing from report:\n%s", want, got)
		}
	}
	// Bank 1: one enqueue, 4 cycles of wait, depth high-water 1.
	found := false
	for _, line := range strings.Split(got, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "1" && f[1] == "1" && f[2] == "4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bank 1 contention row (enqueues 1, wait 4) missing:\n%s", got)
	}
	// Core 1 made the access; core 0 absorbed the shoot-down.
	if !strings.Contains(got, "l1d_invals") {
		t.Fatalf("inval counter missing:\n%s", got)
	}
}

// TestReportMalformedTraceNoPanic feeds the report lines that used to
// crash them: negative ids, which the aggregates index by, must come
// back as a line-numbered error, and a hit stamped before its access
// window opened (a negative latency) must render without a sample.
func TestReportMalformedTraceNoPanic(t *testing.T) {
	for _, line := range []string{
		`{"k":"hit","t":1,"g":-5,"lat":3}`,
		`{"k":"place","t":1,"g":-3}`,
		`{"k":"evict","t":1,"g":-9}`,
		`{"k":"access","t":1,"addr":4096,"core":-2}`,
		`{"k":"inval","t":1,"addr":4096,"core":-1}`,
	} {
		trace := `{"k":"access","t":0,"addr":4096}` + "\n" + line + "\n"
		var out strings.Builder
		if err := report(&out, "bad.jsonl", strings.NewReader(trace), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("report %s: err = %v, want a line-2 error", line, err)
		}
	}
	reversed := `{"k":"access","t":110,"addr":4096}
{"k":"hit","t":0,"g":0,"lat":0}
`
	var out strings.Builder
	if err := report(&out, "reversed.jsonl", strings.NewReader(reversed), obs.DefaultEpochAccesses, obs.DefaultWindowCycles, false); err != nil {
		t.Fatalf("reversed window reported error: %v", err)
	}
}

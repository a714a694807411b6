package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestTextObserverFormat pins the adapter's output to the exact bytes
// the pre-Observer Runner.Progress callback produced.
func TestTextObserverFormat(t *testing.T) {
	var buf bytes.Buffer
	o := TextObserver(&buf)

	o.Observe(RunEvent{Kind: RunStart, App: "mcf", Org: "base"})
	if buf.Len() != 0 {
		t.Fatalf("start events must render nothing, got %q", buf.String())
	}

	o.Observe(RunEvent{Kind: RunFinish, App: "mcf", Org: "base",
		IPC: 1.23456, APKI: 12.34, HasAPKI: true})
	want := "ran mcf      on base                             IPC=1.235 APKI=12.3\n"
	if got := buf.String(); got != want {
		t.Fatalf("finish line:\n got %q\nwant %q", got, want)
	}

	buf.Reset()
	o.Observe(RunEvent{Kind: RunFinish, App: "applu", Org: "nurapid-wire1.50x",
		IPC: 0.5, APKI: 99, HasAPKI: false})
	want = "ran applu    on nurapid-wire1.50x                IPC=0.500\n"
	if got := buf.String(); got != want {
		t.Fatalf("APKI-less finish line:\n got %q\nwant %q", got, want)
	}
}

// TestTextObserverMatchesLegacyProgress runs a real simulation with the
// adapter attached and checks the emitted line against the legacy
// Progress format string, byte for byte.
func TestTextObserverMatchesLegacyProgress(t *testing.T) {
	var buf bytes.Buffer
	r := smallRunner(t, WithInstructions(60_000), WithObserver(TextObserver(&buf)))
	app := r.apps[0]
	res := r.Run(app, Base())
	want := fmt.Sprintf("ran %-8s on %-32s IPC=%.3f APKI=%.1f\n",
		app.Name, "base", res.CPU.IPC, res.CPU.APKI)
	if got := buf.String(); got != want {
		t.Fatalf("progress line:\n got %q\nwant %q", got, want)
	}
}

// TestClockStampsElapsed checks that an injected clock reaches
// RunEvent.Elapsed on finish events (and only there), on both the
// single-core and the CMP path, and that each run reports the time it
// spent obtaining its recorded front end (the stream, or the CMP
// fronts) in FrontEnd, outside Elapsed. The fake clock advances 1 ms
// per read: a run reads it at start and finish and around the front
// end.
func TestClockStampsElapsed(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(r *Runner)
	}{
		{"single-core", func(r *Runner) { r.Run(r.apps[0], Base()) }},
		{"cmp", func(r *Runner) { r.RunCMP(r.apps[0], Base()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ticks time.Duration
			clock := func() time.Duration { ticks += time.Millisecond; return ticks }
			var events []RunEvent
			r := smallRunner(t, WithInstructions(60_000),
				WithObserver(ObserverFunc(func(e RunEvent) { events = append(events, e) })),
				WithClock(clock))
			tc.run(r)
			if len(events) != 2 {
				t.Fatalf("got %d events, want start+finish", len(events))
			}
			if events[0].Elapsed != 0 {
				t.Fatalf("start event carries elapsed %v, want 0", events[0].Elapsed)
			}
			if events[1].Elapsed != 2*time.Millisecond || events[1].FrontEnd != time.Millisecond {
				t.Fatalf("finish elapsed = %v, front end = %v; want 2ms and 1ms from the fake clock",
					events[1].Elapsed, events[1].FrontEnd)
			}
		})
	}
}

// TestEventKindString covers the diagnostic stringer.
func TestEventKindString(t *testing.T) {
	if RunStart.String() != "start" || RunFinish.String() != "finish" {
		t.Fatal("EventKind stringer wrong")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Fatal("unknown kind stringer wrong")
	}
}

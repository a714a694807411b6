package sim

import (
	"fmt"
	"io"
	"time"

	"nurapid/internal/stats"
)

// EventKind distinguishes the lifecycle points an Observer sees.
type EventKind int

const (
	// RunStart fires when a simulation begins executing (not when a
	// memoized result is returned).
	RunStart EventKind = iota
	// RunFinish fires when a simulation completes and its result is
	// available.
	RunFinish
)

func (k EventKind) String() string {
	switch k {
	case RunStart:
		return "start"
	case RunFinish:
		return "finish"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// RunEvent describes one simulation run's lifecycle. Start events carry
// only the identity fields; finish events add the headline metrics and,
// when the Runner has a clock (WithClock), the run's wall time.
//
// Events fire once per executed simulation: memoized and
// singleflight-deduplicated calls observe nothing. A serial Runner
// emits them in prefetch order (app by app); under a parallel Runner
// (WithWorkers > 1) they arrive in completion order, which is not
// deterministic; only the rendered experiment output is.
type RunEvent struct {
	Kind EventKind
	App  string // application name
	Org  string // organization (or variant) key

	// Finish-only fields.
	IPC     float64
	APKI    float64
	HasAPKI bool          // false for CMP runs, which report no APKI
	Elapsed time.Duration // zero unless the Runner has a clock
	// FrontEnd is the host time the run spent waiting for its app's
	// recorded front end, a stream or a CMP run's fronts, which the
	// pool's lane records; zero unless the Runner has a clock. Elapsed excludes it: the recording is shared by
	// every organization the app runs on, so Elapsed stays the cost of
	// this organization alone.
	FrontEnd time.Duration
	// Metrics is the run's full metrics snapshot (RunResult.Snapshot),
	// including any obs_-prefixed probe metrics. Observers must not
	// mutate it.
	Metrics []stats.KV
}

// Observer receives run lifecycle events. The Runner serializes Observe
// calls (they never run concurrently), so implementations need no
// internal locking; they must not call back into the Runner.
type Observer interface {
	Observe(RunEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(RunEvent)

// Observe calls f(e).
func (f ObserverFunc) Observe(e RunEvent) { f(e) }

// textObserver renders finish events as the runner's classic progress
// lines.
type textObserver struct {
	w io.Writer
}

// TextObserver returns an Observer that writes one line per completed
// run, byte-for-byte identical to the progress lines the pre-Observer
// Runner.Progress callback produced (cmd/experiments' stderr format).
func TextObserver(w io.Writer) Observer { return textObserver{w: w} }

func (o textObserver) Observe(e RunEvent) {
	if e.Kind != RunFinish {
		return
	}
	if e.HasAPKI {
		fmt.Fprintf(o.w, "ran %-8s on %-32s IPC=%.3f APKI=%.1f\n", e.App, e.Org, e.IPC, e.APKI)
		return
	}
	fmt.Fprintf(o.w, "ran %-8s on %-32s IPC=%.3f\n", e.App, e.Org, e.IPC)
}

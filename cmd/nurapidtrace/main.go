// Command nurapidtrace aggregates the JSONL event traces the simulator's
// observability layer writes (experiments -trace, sim.WithTrace, or a
// hand-built obs.TraceSink) into human-readable reports: event counters,
// the demotion-chain depth histogram, the hit-latency distribution,
// per-d-group hit counts, and the epoch-based d-group occupancy
// timeline.
//
// Usage:
//
//	experiments -experiment fig6 -trace traces
//	nurapidtrace traces/mcf__nurapid-4g-next-random.jsonl
//	nurapidtrace -csv traces/*.jsonl        # CSV tables
//	nurapidtrace -epoch 1024 run.jsonl      # finer occupancy timeline
//	nurapidtrace < run.jsonl                # read one trace from stdin
//
// CMP traces (experiments -experiment cmp -trace traces) also carry queue-side
// events — enqueue, issue, inval. A trace with enqueue or issue events
// gets the contention report built on the windowed time-series registry
// instead of the single-core tables; no flag selects it:
//
//	nurapidtrace traces/mcf__cmp2-shared-nurapid-4g-next-random.jsonl
//	nurapidtrace -window 4096 run.jsonl   # finer CMP timeline windows
//
// The CMP report renders the per-core latency-breakdown table, the
// per-bank contention summary, the bank-wait heatmap (one row per
// active window, one column per bank), and the queue-depth timeline.
// The timeline tables retain the last 64 active windows; evicted
// windows stay in the all-time tables.
//
// Each input trace gets its own report; outputs follow input order, so
// a fixed argument list renders deterministically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

func main() {
	var (
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned text")
		epoch  = flag.Int64("epoch", obs.DefaultEpochAccesses, "occupancy sample epoch, in accesses")
		window = flag.Int64("window", obs.DefaultWindowCycles, "CMP timeline window, in cycles")
	)
	flag.Parse()

	inputs := flag.Args()
	if len(inputs) == 0 {
		if err := report(os.Stdout, "<stdin>", os.Stdin, *epoch, *window, *csv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for i, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		err = report(os.Stdout, path, f, *epoch, *window, *csv)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

// report decodes one trace and renders its aggregate tables: the CMP
// contention report when the trace carries queue-side events (enqueue
// or issue, which only a CMP run emits), the single-core report
// otherwise. The CMP report's time-series registry runs without a
// latency profile, and a trace carries neither the profile nor the
// port stamps of hit and miss events, so per-core latency comes from
// observed hit latencies and the waterfall stays with the live harvest
// (experiments -experiment cmp, obs_ts_wf_* metrics).
//
// Degenerate inputs are handled gracefully rather than fatally: an
// empty trace and a mid-record truncation both still render the report
// for whatever was decoded (headers-only single-core tables when
// nothing was), and then return a clear error so the process exits
// non-zero — a truncated measurement campaign must not look like a
// successful one.
func report(w io.Writer, name string, r io.Reader, epoch, window int64, csv bool) error {
	coll := obs.NewCollector()
	samp := obs.NewSampler("occupancy", epoch)
	ts := obs.NewTimeSeries("ts", window)
	events, queued := 0, false
	decErr := obs.DecodeTrace(r, func(e obs.Event) error {
		events++
		queued = queued || e.Kind == obs.KindEnqueue || e.Kind == obs.KindIssue
		coll.Emit(e)
		samp.Emit(e)
		ts.Emit(e)
		return nil
	})
	ts.Flush()
	tables := []*stats.Table{countersTable(name, coll.Counters())}
	if queued {
		tables = append(tables,
			coreBreakdownTable(ts),
			bankContentionTable(ts),
			bankHeatmapTable(ts, "queue wait per bank (cycles)",
				func(ws obs.WindowStat) []int64 { return ws.PerBankWaitCycles }),
			bankHeatmapTable(ts, "queue-depth high-water mark per bank",
				func(ws obs.WindowStat) []int64 { return ws.PerBankDepthHWM }),
			windowTable(ts))
	} else {
		tables = append(tables,
			histTable("demotion-chain depth (links per placement)", "depth", coll.ChainDepth()),
			histTable("hit latency (cycles)", "cycles", coll.HitLatency()),
			groupHitsTable(coll.GroupHits()),
			occupancyTable(samp))
	}
	for i, t := range tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		var err error
		if csv {
			err = t.WriteCSV(w)
		} else {
			err = t.WriteText(w)
		}
		if err != nil {
			return err
		}
	}
	if decErr != nil {
		return fmt.Errorf("truncated or corrupt trace (%d events decoded): %w", events, decErr)
	}
	if events == 0 {
		return fmt.Errorf("empty trace: no events decoded")
	}
	return nil
}

// coreBreakdownTable renders each core's all-time view of the shared
// level: access and hit counts, absorbed shoot-downs, queue wait, and
// mean end-to-end latency over the observable samples.
func coreBreakdownTable(ts *obs.TimeSeries) *stats.Table {
	t := stats.NewTable("per-core latency breakdown (all-time)",
		"core", "accesses", "hits", "invals", "qwait", "qwait/acc", "mean lat")
	for i, c := range ts.CoreStats() {
		meanWait, meanLat := 0.0, 0.0
		if c.Accesses > 0 {
			meanWait = float64(c.QueueWaitCycles) / float64(c.Accesses)
		}
		if c.LatencySamples > 0 {
			meanLat = float64(c.LatencyCycles) / float64(c.LatencySamples)
		}
		t.AddRow(i, c.Accesses, c.Hits, c.Invals, c.QueueWaitCycles, meanWait, meanLat)
	}
	return t
}

// bankContentionTable renders each queue bank's all-time contention:
// traffic, total and mean wait, and the deepest queue ever observed.
func bankContentionTable(ts *obs.TimeSeries) *stats.Table {
	t := stats.NewTable("per-bank contention (all-time)",
		"bank", "enqueues", "wait", "wait/enq", "depth hwm")
	for i, b := range ts.BankStats() {
		mean := 0.0
		if b.Enqueues > 0 {
			mean = float64(b.WaitCycles) / float64(b.Enqueues)
		}
		t.AddRow(i, b.Enqueues, b.WaitCycles, mean, b.DepthHWM)
	}
	return t
}

// bankHeatmapTable renders a per-window × per-bank matrix: one row per
// retained active window, one column per bank. The registry's ring
// keeps the last 64 active windows; the title says so because a long
// run's early windows are evicted from the timeline (their traffic
// stays in the all-time tables).
func bankHeatmapTable(ts *obs.TimeSeries, what string, cell func(obs.WindowStat) []int64) *stats.Table {
	banks := len(ts.BankStats())
	headers := []string{"window"}
	for b := 0; b < banks; b++ {
		headers = append(headers, fmt.Sprintf("bank_%d", b))
	}
	t := stats.NewTable(
		fmt.Sprintf("%s per %d-cycle window (last 64 active windows)", what, ts.EpochCycles()),
		headers...)
	for _, ws := range ts.Windows() {
		row := []any{ws.Epoch}
		for b := 0; b < banks; b++ {
			var v int64
			if b < len(cell(ws)) {
				v = cell(ws)[b]
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}

// windowTable renders the per-window activity timeline: accesses, hits,
// and rolling Jain fairness over per-core accesses.
func windowTable(ts *obs.TimeSeries) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("window activity per %d-cycle window (last 64 active windows)", ts.EpochCycles()),
		"window", "accesses", "hits", "fairness")
	for _, ws := range ts.Windows() {
		t.AddRow(ws.Epoch, ws.Accesses, ws.Hits, ws.Fairness)
	}
	return t
}

// countersTable renders the collector's event counters, sorted by name.
func countersTable(name string, ctrs *stats.Counters) *stats.Table {
	t := stats.NewTable("trace "+name+": event counters", "counter", "count")
	for _, n := range ctrs.Names() {
		t.AddRow(n, ctrs.Get(n))
	}
	return t
}

// histTable renders a histogram's populated buckets plus its summary
// rows (overflow when hit, total, mean).
func histTable(title, valueHeader string, h *stats.Histogram) *stats.Table {
	t := stats.NewTable(title, valueHeader, "count")
	for i := 0; i < h.NumBuckets(); i++ {
		if c := h.Count(i); c > 0 {
			t.AddRow(h.BucketLabel(i), c)
		}
	}
	if h.Overflow() > 0 {
		t.AddRow("overflow", h.Overflow())
	}
	t.AddRow("TOTAL", h.Total())
	t.AddRow("MEAN", h.Mean())
	return t
}

// groupHitsTable renders hits served per d-group.
func groupHitsTable(hits []int64) *stats.Table {
	t := stats.NewTable("hits per d-group", "dgroup", "hits")
	for g, n := range hits {
		t.AddRow(g, n)
	}
	return t
}

// occupancyTable renders the epoch timeline: one row per sample, one
// column per d-group. Early samples that predate a group's first use
// render as zero occupancy.
func occupancyTable(s *obs.Sampler) *stats.Table {
	headers := []string{"epoch"}
	for g := 0; g < s.NumGroups(); g++ {
		headers = append(headers, fmt.Sprintf("dgroup_%d", g))
	}
	t := stats.NewTable(
		fmt.Sprintf("d-group occupancy per %d-access epoch (blocks resident)", s.EpochAccesses()),
		headers...)
	for i := 0; i < s.NumSamples(); i++ {
		samp := s.Sample(i)
		row := []any{i}
		for g := 0; g < s.NumGroups(); g++ {
			var v int64
			if g < len(samp) {
				v = samp[g]
			}
			row = append(row, v)
		}
		t.AddRow(row...)
	}
	return t
}

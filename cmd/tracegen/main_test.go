package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nurapid/internal/workload"
)

// TestAnalyzeRejectsTruncatedTrace pins that -analyze -trace surfaces
// a truncated trace as an error instead of analyzing the decodable
// prefix and exiting 0, while the intact trace still analyzes.
func TestAnalyzeRejectsTruncatedTrace(t *testing.T) {
	app, _ := workload.ByName("applu")
	var buf bytes.Buffer
	if err := workload.Capture(&buf, app.Name, workload.MustNewGenerator(app, 1), 500); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.trace")
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(whole, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := analyzeSource(whole, "", 1, 500); err != nil {
		t.Fatalf("intact trace: %v", err)
	}
	err := analyzeSource(cut, "", 1, 500)
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("truncated trace: got %v, want an unexpected-EOF error", err)
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed along with f's error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	ferr := f()
	w.Close()
	out := <-done
	r.Close()
	return string(out), ferr
}

// writeTrace records n instructions of app to a file under dir.
func writeTrace(t *testing.T, dir, app string, n int64) (string, []byte) {
	t.Helper()
	a, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("unknown app %q", app)
	}
	var buf bytes.Buffer
	if err := workload.Capture(&buf, a.Name, workload.MustNewGenerator(a, 1), n); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, app+".trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestCaptureAllMatchesSerialCapture pins -all's contract: every file
// holds the same bytes as a serial capture of that app with the same
// seed, and the summary lists the apps in roster order.
func TestCaptureAllMatchesSerialCapture(t *testing.T) {
	dir := t.TempDir()
	const n = 300
	out, err := captureStdout(t, func() error { return captureAll(dir, 1, n, 4) })
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, app := range workload.Apps() {
		var buf bytes.Buffer
		if err := workload.Capture(&buf, app.Name, workload.MustNewGenerator(app, 1), n); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, app.Name+".trace")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s: -all capture differs from a serial capture", app.Name)
		}
		fmt.Fprintf(&want, "recorded %d instructions of %s to %s\n", n, app.Name, path)
	}
	if out != want.String() {
		t.Errorf("summary =\n%s\nwant\n%s", out, want.String())
	}
}

// TestCaptureAllClampsWorkers checks that a worker count below one or
// above the roster size still records every app: with zero workers the
// job feed would otherwise block forever.
func TestCaptureAllClampsWorkers(t *testing.T) {
	for _, workers := range []int{0, -3, 100} {
		dir := t.TempDir()
		if _, err := captureStdout(t, func() error { return captureAll(dir, 1, 50, workers) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(workload.Apps()) {
			t.Errorf("workers=%d: %d trace files, want %d", workers, len(entries), len(workload.Apps()))
		}
	}
}

func TestCaptureAllReportsBadDirectory(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error { return captureAll(notDir, 1, 10, 2) }); err == nil {
		t.Fatal("capturing into a regular file's path must fail")
	}
	if err := captureOne(filepath.Join(notDir, "x.trace"), workload.Apps()[0], 1, 10); err == nil {
		t.Fatal("captureOne under a regular file must fail")
	}
}

// TestInspectTraceSummary checks -inspect's record count and per-kind
// tallies against a direct decode of the same trace.
func TestInspectTraceSummary(t *testing.T) {
	path, raw := writeTrace(t, t.TempDir(), "gzip", 400)
	out, err := captureStdout(t, func() error { return inspectTrace(path) })
	if err != nil {
		t.Fatal(err)
	}
	r, err := workload.NewTraceReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[workload.Kind]int64{}
	mispredicts := 0
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		counts[in.Kind]++
		if in.Mispredicted {
			mispredicts++
		}
	}
	for _, want := range []string{
		fmt.Sprintf("trace: %s    app: gzip    records: 400 (declared 400)\n", path),
		fmt.Sprintf("  %-7s %12d (", workload.Load, counts[workload.Load]),
		fmt.Sprintf("  %-7s %12d (", workload.Branch, counts[workload.Branch]),
		fmt.Sprintf("  mispredicted branches: %d\n", mispredicts),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output lacks %q:\n%s", want, out)
		}
	}
}

func TestInspectTraceRejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	_, raw := writeTrace(t, dir, "applu", 500)
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := captureStdout(t, func() error { return inspectTrace(cut) })
	if err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("truncated trace: got %v, want an unexpected-EOF error", err)
	}
}

func TestInspectTraceRejectsMissingAndGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := inspectTrace(filepath.Join(dir, "absent.trace")); err == nil {
		t.Error("a missing trace must be an error")
	}
	junk := filepath.Join(dir, "junk.trace")
	if err := os.WriteFile(junk, []byte("not a trace file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectTrace(junk); err == nil {
		t.Error("a file without the trace magic must be an error")
	}
}

func TestAnalyzeRejectsUnknownApp(t *testing.T) {
	err := analyzeSource("", "no-such-app", 1, 100)
	if err == nil || !strings.Contains(err.Error(), `unknown application "no-such-app"`) {
		t.Fatalf("got %v, want an unknown-application error", err)
	}
}

// TestAnalyzeTraceMatchesGenerator checks that profiling a recorded
// trace prints the same profile as profiling the generator stream it
// was recorded from; only the source label differs.
func TestAnalyzeTraceMatchesGenerator(t *testing.T) {
	const n = 2000
	path, _ := writeTrace(t, t.TempDir(), "mcf", n)
	fromGen, err := captureStdout(t, func() error { return analyzeSource("", "mcf", 1, n) })
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := captureStdout(t, func() error { return analyzeSource(path, "", 1, n) })
	if err != nil {
		t.Fatal(err)
	}
	_, genBody, _ := strings.Cut(fromGen, "\n")
	_, traceBody, _ := strings.Cut(fromTrace, "\n")
	if genBody == "" || genBody != traceBody {
		t.Fatalf("trace profile differs from generator profile:\n%s\nvs\n%s", fromTrace, fromGen)
	}
	if !strings.HasPrefix(fromTrace, "analysis of trace "+path+" (mcf)") {
		t.Fatalf("trace label = %q", strings.SplitN(fromTrace, "\n", 2)[0])
	}
}

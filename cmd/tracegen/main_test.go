package main

import (
	"bytes"
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

package nurapid

import (
	"encoding/json"
	"os"
	"testing"
)

// writeBenchRecord writes one bench smoke's record to path as indented
// JSON with a trailing newline — the one format every BENCH_*.json
// file shares.
func writeBenchRecord(t *testing.T, path string, rec any) {
	t.Helper()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// readBenchBaseline loads the committed baseline at path into base and
// reports whether one exists; a baseline that does not parse fails the
// test.
func readBenchBaseline(t *testing.T, path string, base any) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	if err := json.Unmarshal(data, base); err != nil {
		t.Fatalf("committed %s is corrupt: %v", path, err)
	}
	return true
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"nurapid/internal/cmp"
	"nurapid/internal/sim"
)

// goldenExperiments are the runs of the small-run golden, in its order:
// each experiment id with the -cores and -sharing it renders at. `make
// golden` runs the same list. The CMP entries cover both sharing
// patterns and an odd core count, where the lockstep rank rotation does
// not divide evenly.
var goldenExperiments = []struct {
	id      string
	cores   int
	sharing cmp.Sharing
}{
	{"all", 2, cmp.Shared},
	{"sweep-capacity", 2, cmp.Shared},
	{"sweep-block", 2, cmp.Shared},
	{"sweep-tech", 2, cmp.Shared},
	{"predictor", 2, cmp.Shared},
	{"cmp", 2, cmp.Shared},
	{"cmp", 2, cmp.Private},
	{"cmp", 3, cmp.Shared},
}

// TestMain runs the command itself, not the tests, when the test binary
// is re-executed with runMainEnv set, so tests can check its exit status
// and output.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

// runCommand runs the command with args in a child process and returns
// its stdout, stderr and exit status.
func runCommand(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestReplayRejectsIgnoredFlags pins -replay's flag check: a flag its
// path does not read, set explicitly, exits 2 with a message naming it,
// before anything runs (no replay output, no trace directory); -q, which
// has nothing to quiet, is accepted.
func TestReplayRejectsIgnoredFlags(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	for _, c := range []struct {
		args []string
		want string // message; "" for a run that must succeed
	}{
		{[]string{"-replay", "mcf", "-n", "2000", "-selfcheck", "-trace", dir, "-csv"}, "-replay does not read -csv, -selfcheck, -trace"},
		{[]string{"-replay", "mcf", "-n", "2000", "-experiment", "all"}, "-replay does not read -experiment"},
		{[]string{"-replay", "mcf", "-n", "2000", "-cores", "2", "-sharing", "shared", "-http", "localhost:0"}, "-replay does not read -cores, -http, -sharing"},
		{[]string{"-replay", "mcf", "-n", "2000", "-q", "-seed", "3", "-workers", "1"}, ""},
	} {
		stdout, stderr, status := runCommand(t, c.args...)
		if c.want == "" {
			if status != 0 || !strings.Contains(stdout, "fingerprint") {
				t.Errorf("%v: exit %d, stdout %q, stderr %q; want a replay and exit 0", c.args, status, stdout, stderr)
			}
			continue
		}
		if status != 2 || strings.TrimSpace(stderr) != c.want || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and %q", c.args, status, stdout, stderr, c.want)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("a rejected -replay -trace created %s (stat: %v)", dir, err)
	}
}

const goldenFile = "testdata/golden-n50000-seed1.txt"

// TestSmallRunGolden pins every paper output to committed bytes: it
// renders goldenExperiments at 50 000 instructions, seed 1, in-process
// on a 2-worker Runner, and compares the text with the file `make golden`
// writes from the command itself. The run is warm-up dominated, so the
// golden pins the code's behaviour, not the paper's claims
// (experiments_output.txt is the claims reference). A deliberate
// re-baseline regenerates it and shows as a readable diff.
func TestSmallRunGolden(t *testing.T) {
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, g := range goldenExperiments {
		r := sim.NewRunner(sim.WithInstructions(50_000), sim.WithSeed(1), sim.WithWorkers(2),
			sim.WithCores(g.cores), sim.WithSharing(g.sharing))
		exps, err := experiments(r, g.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := render(&got, exps, false); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	var diff strings.Builder
	for j := i; j < i+8 && (j < len(g) || j < len(w)); j++ {
		if j < len(g) && j < len(w) && g[j] == w[j] {
			diff.WriteString("\n  " + w[j])
			continue
		}
		if j < len(w) {
			diff.WriteString("\n- " + w[j])
		}
		if j < len(g) {
			diff.WriteString("\n+ " + g[j])
		}
	}
	t.Fatalf("render differs from %s (%d lines, got %d) from line %d (- golden, + render):%s\n"+
		"after a deliberate re-baseline, regenerate it with `make golden`", goldenFile, len(w), len(g), i+1, diff.String())
}

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		n       int64
		cores   int
		sharing string
		want    string // error text; "" for none
	}{
		{1, 1, "shared", ""},
		{2_000_000, 4, "private", ""},
		{0, 2, "shared", "-n must be at least 1, got 0"},
		{-1, 2, "shared", "-n must be at least 1, got -1"},
		{50_000, 0, "shared", "-cores must be at least 1, got 0"},
		{50_000, -3, "shared", "-cores must be at least 1, got -3"},
		{50_000, 2, "bogus", "cmp: unknown sharing pattern"},
	} {
		_, err := checkFlags(c.n, c.cores, c.sharing)
		if (err == nil) != (c.want == "") || (err != nil && !strings.HasPrefix(err.Error(), c.want)) {
			t.Errorf("checkFlags(%d, %d, %q) = %v, want %q", c.n, c.cores, c.sharing, err, c.want)
		}
	}
}

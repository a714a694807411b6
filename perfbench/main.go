// Command perfbench is the repository's benchmark. It regenerates one of
// three workloads through the simulator's public API for a fixed host
// time, checks every output against committed goldens, and prints the
// end-to-end metrics (--trace 0) or a per-layer ledger measured through
// timing wrappers around each layer's public interface (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root:
//
//	python3 perfbench/run.py --workload fig6-fullsys --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"nurapid/internal/cacti"
	"nurapid/internal/workload"
)

// benchApps is the application subset every workload runs.
var benchApps = []string{"applu", "art", "mcf", "galgel", "gzip"}

// workloadNames lists the workloads, those of BENCHMARK.json first and in
// its order. replay-l2 is not among them: memory-bound, it spread past the
// benchmark's bounds from run to run on a shared host, so it is run by
// hand when the L2 organizations or the replay pipeline change.
var workloadNames = []string{"fig6-fullsys", "cmp4-shared-probed", "replay-l2"}

// Run lengths at scale 1: instructions per fig6 job, instructions per
// core of a cmp job, and requests per app of a replay trace.
const (
	fig6Instructions = 400_000
	cmpInstructions  = 100_000
	replayRequests   = 400_000
)

// newRun builds a workload at a simulation seed: the timing model, the
// roster and the run lengths, multiplied by scale (the tests shrink them;
// goldens exist only at 1). This is the set-up setup_s times.
func newRun(name string, seed uint64, scale float64) (workloadRun, error) {
	model := cacti.Default()
	apps := make([]workload.App, 0, len(benchApps))
	for _, n := range benchApps {
		a, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", n)
		}
		apps = append(apps, a)
	}
	sized := func(n int) int { return max(1, int(float64(n)*scale)) }
	switch name {
	case "fig6-fullsys":
		return &fig6Run{model: model, apps: apps, seed: seed, n: int64(sized(fig6Instructions))}, nil
	case "cmp4-shared-probed":
		return &cmpRun{model: model, apps: apps, seed: seed, n: int64(sized(cmpInstructions))}, nil
	case "replay-l2":
		return &replayRun{model: model, apps: apps, seed: seed, n: sized(replayRequests), orgs: replayOrgs()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "input seed; selects simulation seed 1 + (seed-1) mod 16")
	seconds := flag.Float64("seconds", 10, "host seconds of timed iterations")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := flag.String("record-goldens", "", "record goldens for every workload and seed into this file, then exit")
	flag.Parse()

	if *record != "" {
		if err := recordGoldens(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := runBench(*name, *seed, *seconds, *trace == 1, 1, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if *trace == 1 {
		if err := res.writeSpans(filepath.Join(".bench_build", "perfbench", "spans")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
		}
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostStamp identifies the host and run a record was taken on.
type hostStamp struct {
	Workload        string  `json:"workload"`
	Seed            uint64  `json:"seed"`
	SimSeed         uint64  `json:"sim_seed"`
	RunSeconds      float64 `json:"run_seconds"`
	Trace           bool    `json:"trace"`
	Apps            string  `json:"apps"`
	RunLength       string  `json:"run_length"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	CPU             string  `json:"cpu_model"`
	SampleN         int     `json:"sample_1_in_n"`
	ClockCostNS     int64   `json:"clock_cost_ns"`
	ModelValidation string  `json:"model_validation"`
}

func newHostStamp(name string, seed uint64, seconds float64, trace bool, scale float64) hostStamp {
	length := map[string]string{
		"fig6-fullsys":       fmt.Sprintf("%d instructions per (app, org) job", int(fig6Instructions*scale)),
		"cmp4-shared-probed": fmt.Sprintf("%d instructions per core, %d cores", int(cmpInstructions*scale), cmpCores),
		"replay-l2":          fmt.Sprintf("%d L2 requests per app trace", int(replayRequests*scale)),
	}[name]
	return hostStamp{
		Workload: name, Seed: seed, SimSeed: simSeed(seed), RunSeconds: seconds, Trace: trace,
		Apps: strings.Join(benchApps, ","), RunLength: length,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), SampleN: sampleN, ClockCostNS: clockCost,
		ModelValidation: "the timing model is unvalidated against hardware; simulated figures carry no error figure",
	}
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the nearest-rank 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// Command tracegen records synthetic application traces to disk and
// inspects existing trace files.
//
// Usage:
//
//	tracegen -app mcf -n 1000000 -o mcf.trace     # record
//	tracegen -all -o traces/                      # record the full roster
//	tracegen -all -workers 4                      # ... on 4 concurrent streams
//	tracegen -inspect mcf.trace                   # summarize
//	tracegen -app mcf -analyze                    # reuse-distance profile
//	tracegen -inspect mcf.trace -analyze          # profile a trace file
//
// -all captures every registered application concurrently (one
// independent generator stream per app, -workers capture goroutines);
// each trace file's bytes are identical to a serial -app capture with
// the same seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"nurapid/internal/workload"
)

func main() {
	var (
		appName = flag.String("app", "applu", "application model to record")
		n       = flag.Int64("n", 1_000_000, "instructions to record")
		out     = flag.String("o", "", "output trace path (default <app>.trace)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		inspect = flag.String("inspect", "", "summarize an existing trace instead of recording")
		analyze = flag.Bool("analyze", false, "print a reuse-distance and footprint profile")
		all     = flag.Bool("all", false, "record every registered application (-o names the output directory)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent capture streams with -all")
	)
	flag.Parse()

	if *all {
		if err := captureAll(*out, *seed, *n, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *analyze {
		if err := analyzeSource(*inspect, *appName, *seed, *n); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *inspect != "" {
		if err := inspectTrace(*inspect); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	app, ok := workload.ByName(*appName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown application %q\n", *appName)
		os.Exit(2)
	}
	path := *out
	if path == "" {
		path = app.Name + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	gen := workload.MustNewGenerator(app, *seed)
	if err := workload.Capture(f, app.Name, gen, *n); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d instructions of %s to %s\n", *n, app.Name, path)
}

// captureAll records every registered application's trace concurrently.
// Each app gets its own generator (generators are stateful and cannot
// be shared), so the streams are fully independent and the per-file
// bytes match a serial capture exactly; only wall time changes with the
// worker count. The summary prints in roster order regardless of which
// capture finished first.
func captureAll(dir string, seed uint64, n int64, workers int) error {
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	apps := workload.Apps()
	if workers < 1 {
		workers = 1
	}
	if workers > len(apps) {
		workers = len(apps)
	}
	errs := make([]error, len(apps))
	paths := make([]string, len(apps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				app := apps[i]
				paths[i] = filepath.Join(dir, app.Name+".trace")
				errs[i] = captureOne(paths[i], app, seed, n)
			}
		}()
	}
	for i := range apps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, app := range apps {
		if errs[i] != nil {
			return fmt.Errorf("capture %s: %w", app.Name, errs[i])
		}
		fmt.Printf("recorded %d instructions of %s to %s\n", n, app.Name, paths[i])
	}
	return nil
}

// captureOne records a single app's stream to path.
func captureOne(path string, app workload.App, seed uint64, n int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	gen := workload.MustNewGenerator(app, seed)
	if err := workload.Capture(f, app.Name, gen, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// analyzeSource profiles the data references of either a trace file or a
// freshly generated stream: exact LRU reuse distances, the distinct-block
// footprint, and the hit rate a fully-associative LRU cache of each
// interesting capacity would see.
func analyzeSource(tracePath, appName string, seed uint64, n int64) error {
	var src workload.Source
	var reader *workload.TraceReader
	label := ""
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		reader, err = workload.NewTraceReader(f)
		if err != nil {
			return err
		}
		src, label = reader, fmt.Sprintf("trace %s (%s)", tracePath, reader.Name())
	} else {
		app, ok := workload.ByName(appName)
		if !ok {
			return fmt.Errorf("unknown application %q", appName)
		}
		src, label = workload.MustNewGenerator(app, seed), "generator "+app.Name
	}

	a := workload.AnalyzeSource(src, n, 128)
	if reader != nil && reader.Err() != nil {
		// A truncated or corrupt trace must not be analyzed as if it
		// were a shorter, valid one.
		return fmt.Errorf("%s: %w", tracePath, reader.Err())
	}
	h := a.Histogram()
	fmt.Printf("analysis of %s over %d instructions\n\n", label, n)
	if err := h.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\ndistinct 128-B blocks touched: %d (%.1f KB)\n",
		a.DistinctBlocks(), float64(a.DistinctBlocks())*128/1024)
	fmt.Println("\nLRU hit rate by cache capacity (fully associative bound):")
	for _, c := range []struct {
		name   string
		blocks int64
	}{
		{"64 KB (L1)", 512},
		{"1 MB (base L2)", 8192},
		{"2 MB (d-group)", 16384},
		{"8 MB (NuRAPID)", 65536},
	} {
		fmt.Printf("  %-16s %6.1f%%\n", c.name, 100*h.HitFractionAt(c.blocks))
	}
	return nil
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := workload.NewTraceReader(f)
	if err != nil {
		return err
	}
	counts := map[workload.Kind]int64{}
	mispredicts := int64(0)
	var records int64
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		records++
		counts[in.Kind]++
		if in.Mispredicted {
			mispredicts++
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Printf("trace: %s    app: %s    records: %d (declared %d)\n",
		path, r.Name(), records, r.Count())
	for _, k := range []workload.Kind{workload.ALU, workload.Load, workload.Store, workload.Branch} {
		fmt.Printf("  %-7s %12d (%.1f%%)\n", k, counts[k],
			100*float64(counts[k])/float64(max(records, 1)))
	}
	fmt.Printf("  mispredicted branches: %d\n", mispredicts)
	return nil
}

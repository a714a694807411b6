// Parallel trace-gen + replay pipeline. The measurement campaigns'
// replay work factors into two kinds of independence the serial path
// never exploited: trace generation is embarrassingly parallel across
// (app, seed) streams (each stream is independently seeded, so shards
// need no coordination), and replay is embarrassingly parallel across
// (app, org) jobs (each job builds a private L2 and memory). Within one
// job, cache state cannot be split, so each replay is one sequential
// ReplayTrace; the per-job results merge deterministically by job
// index, reproducing the serial ReplayResult and Fingerprint bytes
// exactly whatever the worker count or completion order.
package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"

	"nurapid/internal/cacti"
	"nurapid/internal/workload"
)

// ReplayJob names one replay: app's request stream at Seed, budgeted at
// N requests, driven through a fresh instance of Org.
type ReplayJob struct {
	App  workload.App
	Seed uint64
	N    int
	Org  Organization
}

// ReplayOptions configures ReplayAll's worker pool.
type ReplayOptions struct {
	// Workers bounds the pool; <= 1 replays serially on the calling
	// goroutine, in job order.
	Workers int

	// order permutes replay-task submission (a test hook: shuffled
	// completion order must not change the merged results).
	order []int
}

// ReplayAll runs every job on a bounded worker pool and returns the
// results indexed like jobs (the deterministic merge). Trace generation
// is sharded per (app, seed, n) stream on the shared producer cache
// (streams.go): jobs replaying the same stream share one generation
// pass, submitted just ahead of the stream's first replay, and the
// trace is recycled after its last. So generation overlaps with the
// replay of streams already generated, and a few traces are held at a
// time rather than all of them. The results are byte-identical to
// calling ReplayTrace serially per job, whatever Workers is; a tested,
// race-checked guarantee.
//
//nurapid:coldpath
func ReplayAll(model *cacti.Model, jobs []ReplayJob, opts ReplayOptions) []*ReplayResult {
	if len(jobs) == 0 {
		return nil
	}
	jobOrder := opts.order
	if jobOrder == nil {
		jobOrder = make([]int, len(jobs))
		for i := range jobOrder {
			jobOrder[i] = i
		}
	} else if len(jobOrder) != len(jobs) {
		panic(fmt.Sprintf("sim: replay order permutation has %d entries for %d jobs",
			len(jobOrder), len(jobs)))
	}

	// Every replay holds its trace from here until it finishes, so the
	// last one recycles it; the first one's producer goes just ahead.
	var traces producers[Trace]
	results := make([]*ReplayResult, len(jobs))
	tasks := make([]func(), 0, 2*len(jobs))
	for _, i := range jobOrder {
		i, job := i, jobs[i]
		e, fresh := traces.plan(replayKey(job), 1)
		if fresh {
			tasks = append(tasks, func() {
				traces.fill(context.Background(), e, "tracegen", func(reuse Trace) Trace {
					return extractTrace(reuse, workload.MustNewGenerator(job.App, job.Seed), job.N)
				})
			})
		}
		tasks = append(tasks, func() {
			defer traces.release(e)
			labels := pprof.Labels("app", job.App.Name, "org", job.Org.Key, "phase", "replay")
			pprof.Do(context.Background(), labels, func(context.Context) {
				results[i] = ReplayTrace(model, job.Org, e.wait())
			})
		})
	}
	runPool(opts.Workers, tasks)
	return results
}

// replayKey names the trace a replay job reads.
func replayKey(j ReplayJob) streamKey {
	return streamKey{app: j.App, seed: j.Seed, n: int64(j.N)}
}

// runPool executes tasks on min(w, len(tasks)) goroutines, handing them
// out in submission order; with w <= 1 it runs them inline, in order,
// on the calling goroutine. Either way a task that panics does not stop
// the rest: the panic is recovered, the one with the lowest submission
// index is latched (so which panic wins is deterministic under any
// completion order), the remaining tasks still run — filling every
// planned stream and releasing every singleflight waiter — and the
// latched panic is re-raised on the caller's goroutine after the pool
// drains.
func runPool(w int, tasks []func()) {
	var (
		mu       sync.Mutex
		panicIdx = -1
		panicVal any
	)
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if panicIdx == -1 || i < panicIdx {
					panicIdx, panicVal = i, p
				}
				mu.Unlock()
			}
		}()
		tasks[i]()
	}
	if w = min(w, len(tasks)); w <= 1 {
		for i := range tasks {
			run(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
		for i := range tasks {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if panicIdx != -1 {
		panic(fmt.Sprintf("sim: pooled task %d panicked: %v", panicIdx, panicVal))
	}
}

// Parallel trace-gen + replay pipeline. The measurement campaigns'
// replay work factors into two kinds of independence the serial path
// never exploited: trace generation is independent across (app, seed)
// streams (each stream is independently seeded), so one stream's
// generation overlaps the replay of the streams before it, and replay
// is embarrassingly parallel across (app, org) jobs (each job builds a
// private L2 and memory). Within one
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
	"sync/atomic"

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
	// Workers bounds the pool that replays the jobs; <= 1 is a pool of
	// one, which replays them in job order while the lane generates the
	// next trace.
	Workers int

	// order permutes replay-task submission (a test hook: shuffled
	// completion order must not change the merged results).
	order []int
}

// ReplayAll runs every job on a bounded worker pool and returns the
// results indexed like jobs (the deterministic merge). Trace generation
// is sharded per (app, seed, n) stream on the shared producer cache
// (streams.go): the jobs of a stream that run one after another form a
// group (runPool), whose trace the lane generates while the workers
// replay the traces before it, and the trace is recycled after its last
// replay. So a few traces are held at a time rather than all of them.
// The results are byte-identical to calling ReplayTrace serially per
// job, whatever Workers is; a tested, race-checked guarantee.
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
	// last one recycles it.
	var traces producers[Trace]
	results := make([]*ReplayResult, len(jobs))
	var groups []group
	for k, i := range jobOrder {
		i, job := i, jobs[i]
		e := traces.plan(replayKey(job), 1)
		if k == 0 || replayKey(jobs[jobOrder[k-1]]) != replayKey(job) {
			groups = append(groups, group{produce: func() {
				traces.ensure(context.Background(), e, "tracegen", func(reuse Trace) Trace {
					return extractTrace(reuse, workload.MustNewGenerator(job.App, job.Seed), job.N)
				})
			}})
		}
		g := &groups[len(groups)-1]
		g.consume = append(g.consume, func() {
			defer traces.release(e)
			labels := pprof.Labels("app", job.App.Name, "org", job.Org.Key, "phase", "replay")
			pprof.Do(context.Background(), labels, func(context.Context) {
				results[i] = ReplayTrace(model, job.Org, e.wait())
			})
		})
	}
	runPool(opts.Workers, groups)
	return results
}

// replayKey names the trace a replay job reads.
func replayKey(j ReplayJob) streamKey {
	return streamKey{app: j.App, seed: j.Seed, n: int64(j.N)}
}

// group is one producer task and the consumer tasks that read what it
// produces.
type group struct {
	produce func()
	consume []func()
}

// runPool runs every group's producer on one goroutine, the lane, in
// group order, and the consumers on min(w, consumers) worker goroutines
// (at least one), handed out in submission order. A group is held from
// the start of its producer until the lane and all its consumers are
// done with it, and the lane starts a producer only while fewer than
// workers+1 groups are held: it produces the next groups' values while
// the workers consume the current ones, and holds at most workers+1 at
// once. The pool cannot deadlock. A consumer waits only for its own
// group's producer. The lane waits for room only while workers+1 groups
// it has produced each have a consumer still to finish; consumers go
// out in order, so no worker takes a later group's consumer before all
// of theirs are out, and the workers cannot run workers+1 of them at
// once, so some worker runs one of theirs, which waits on nothing.
//
// A task that panics does not stop the rest: the panic is recovered,
// the one with the lowest submission index (each group's producer, then
// its consumers) is latched, so which panic wins is deterministic under
// any completion order, the remaining tasks still run — filling every
// planned stream and releasing every singleflight waiter — and the
// latched panic is re-raised on the caller's goroutine once every
// goroutine of the pool has exited.
func runPool(w int, groups []group) {
	var (
		mu       sync.Mutex
		panicIdx = -1
		panicVal any
	)
	run := func(i int, task func()) {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if panicIdx == -1 || i < panicIdx {
					panicIdx, panicVal = i, p
				}
				mu.Unlock()
			}
		}()
		task()
	}

	// first[g] is the submission index of group g's producer; left[g]
	// counts its tasks still to finish, the last of which frees its slot.
	first := make([]int, len(groups))
	left := make([]atomic.Int32, len(groups))
	tasks := 0
	for g, gr := range groups {
		first[g] = tasks
		left[g].Store(int32(len(gr.consume) + 1))
		tasks += len(gr.consume) + 1
	}
	w = max(1, min(w, tasks-len(groups)))
	slots := make(chan struct{}, w+1)
	finish := func(g int) {
		if left[g].Add(-1) == 0 {
			<-slots
		}
	}

	var wg sync.WaitGroup
	wg.Add(1 + w)
	go func() { // the lane
		defer wg.Done()
		for g, gr := range groups {
			slots <- struct{}{}
			run(first[g], gr.produce)
			finish(g)
		}
	}()
	type consumer struct{ g, k int } // group g's k-th consumer
	next := make(chan consumer)
	for range w {
		go func() {
			defer wg.Done()
			for c := range next {
				run(first[c.g]+1+c.k, groups[c.g].consume[c.k])
				finish(c.g)
			}
		}()
	}
	for g, gr := range groups {
		for k := range gr.consume {
			next <- consumer{g, k}
		}
	}
	close(next)
	wg.Wait()
	if panicIdx != -1 {
		panic(fmt.Sprintf("sim: pooled task %d panicked: %v", panicIdx, panicVal))
	}
}

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
	// Workers bounds the pool that replays the jobs, the calling
	// goroutine included; <= 1 is a pool of one, the caller, which
	// replays them in job order while the lane generates the next trace.
	Workers int

	// order permutes replay-task submission (a test hook: shuffled
	// completion order must not change the merged results).
	order []int
}

// ReplayAll runs every job on a bounded worker pool and returns the
// results indexed like jobs (the deterministic merge). Trace generation
// is sharded per (app, seed, n) stream on the shared producer cache
// (streams.go): the jobs of a stream that run one after another form
// one group (schedule, runPool), whose trace the lane generates while the workers
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

	// Each run of consecutive jobs on one trace is one group: every
	// replay holds the trace from here until it finishes, so the last one
	// recycles it.
	var traces producers[Trace]
	results := make([]*ReplayResult, len(jobs))
	var groups []group
	for k := 0; k < len(jobOrder); {
		lead := jobs[jobOrder[k]]
		var replays []func(*shared[Trace])
		for ; k < len(jobOrder) && replayKey(jobs[jobOrder[k]]) == replayKey(lead); k++ {
			i, job := jobOrder[k], jobs[jobOrder[k]]
			replays = append(replays, func(e *shared[Trace]) {
				labels := pprof.Labels("app", job.App.Name, "org", job.Org.Key, "phase", "replay")
				pprof.Do(context.Background(), labels, func(context.Context) {
					results[i] = ReplayTrace(model, job.Org, e.wait())
				})
			})
		}
		groups = schedule(groups, &traces, replayKey(lead), "tracegen", func(reuse Trace) Trace {
			return extractTrace(reuse, workload.MustNewGenerator(lead.App, lead.Seed), lead.N)
		}, replays)
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
// group order, and the consumers on min(w, consumers) workers (at least
// one): the calling goroutine and as many more goroutines as that
// leaves. Every worker takes the next consumer from one atomic cursor,
// so consumers go out in submission order. A group is held from the
// start of its producer until the lane and all its consumers are done
// with it, and the lane starts a producer only while fewer than
// workers+1 groups are held: it produces the next groups' values while
// the workers consume the current ones, and holds at most workers+1 at
// once. The pool cannot deadlock. A consumer waits only for its own
// group's producer. The lane waits for room only while workers+1 groups
// it has produced each have a consumer still to finish. The cursor
// hands a later group's consumer to no worker before every consumer of
// those groups has been taken, and the workers cannot run workers+1 of
// them at once, so one of them is still untaken: no worker holds a
// consumer whose producer is waiting, and some worker runs a consumer
// of a produced group, which waits on nothing.
//
// A task that panics does not stop the rest: the panic is recovered,
// the one with the lowest submission index (each group's producer, then
// its consumers) is latched, so which panic wins is deterministic under
// any completion order, the remaining tasks still run — filling every
// planned stream and releasing every singleflight waiter — and the
// latched panic is re-raised on the caller's goroutine once every
// goroutine of the pool has exited. With no groups, runPool returns at
// once and starts no goroutine.
func runPool(w int, groups []group) {
	if len(groups) == 0 {
		return
	}
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
	// consumers lists every consumer in submission order.
	type consumer struct{ g, k int } // group g's k-th consumer
	first := make([]int, len(groups))
	left := make([]atomic.Int32, len(groups))
	var consumers []consumer
	for g, gr := range groups {
		first[g] = g + len(consumers)
		left[g].Store(int32(len(gr.consume) + 1))
		for k := range gr.consume {
			consumers = append(consumers, consumer{g, k})
		}
	}
	w = max(1, min(w, len(consumers)))
	slots := make(chan struct{}, w+1)
	finish := func(g int) {
		if left[g].Add(-1) == 0 {
			<-slots
		}
	}
	var cursor atomic.Int64
	work := func() {
		for i := cursor.Add(1) - 1; i < int64(len(consumers)); i = cursor.Add(1) - 1 {
			c := consumers[i]
			run(first[c.g]+1+c.k, groups[c.g].consume[c.k])
			finish(c.g)
		}
	}

	var wg sync.WaitGroup
	wg.Add(w)
	go func() { // the lane
		defer wg.Done()
		for g, gr := range groups {
			slots <- struct{}{}
			run(first[g], gr.produce)
			finish(g)
		}
	}()
	for range w - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the caller is worker 0
	wg.Wait()
	if panicIdx != -1 {
		panic(fmt.Sprintf("sim: pooled task %d panicked: %v", panicIdx, panicVal))
	}
}

package main

import (
	"fmt"
	"sync"

	"nurapid/internal/cacti"
	"nurapid/internal/nuca"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/workload"
)

// replayWorkers is the pool width of the replay-l2 workload. With two
// workers on a two-CPU host, host time varied by +-15% from run to run
// (against +-4% with one), wider than any bound the benchmark can hold.
const replayWorkers = 1

// replayOrgs are the replayed organizations: the base hierarchy, D-NUCA,
// the paper's NuRAPID, and NuRAPID with every predictor feature.
func replayOrgs() []sim.Organization {
	pred := nurapid.DefaultConfig()
	pred.Promotion = nurapid.PredictiveBypass
	pred.Distance = nurapid.DeadOnArrival
	pred.Memoize = true
	return []sim.Organization{sim.Base(), sim.DNUCA(nuca.DefaultConfig()),
		sim.NuRAPID(nurapid.DefaultConfig()), sim.NuRAPID(pred)}
}

// replayRun replays each app's L2 request stream through every
// organization with sim.ReplayAll.
type replayRun struct {
	model *cacti.Model
	apps  []workload.App
	seed  uint64
	n     int // requests per app
	orgs  []sim.Organization

	// instr is the instruction count each app's trace covers, learnt
	// from the first traced iteration.
	instr map[string]int64
}

func (r *replayRun) workers() int { return replayWorkers }
func (r *replayRun) jobs() int    { return len(r.apps) * len(r.orgs) }

// jobKey names one replay job in goldens and spans.
func jobKey(app string, org sim.Organization) string { return app + "/" + org.Key }

func (r *replayRun) iterate(m mode) *iterOut {
	if m == traced {
		return r.traced()
	}
	// Each job's organization is stamped at construction and at the end
	// of every AccessMany chunk: two clock reads per chunk of
	// sim.DefaultChunkRequests requests, no per-request wrapper.
	var ctxs []*jobCtx
	var jobs []sim.ReplayJob
	for _, app := range r.apps {
		for _, org := range r.orgs {
			j := &jobCtx{tr: &tracer{}, job: jobKey(app.Name, org), root: -1, layer: layerOf(org), acc: newJobAcc()}
			ctxs = append(ctxs, j)
			jobs = append(jobs, sim.ReplayJob{App: app, Seed: r.seed, N: r.n, Org: j.org(org)})
		}
	}
	results := sim.ReplayAll(r.model, jobs, sim.ReplayOptions{Workers: replayWorkers})
	out := r.collect(jobs, results)
	for _, j := range ctxs {
		first, last := j.tr.spans[0], j.tr.spans[len(j.tr.spans)-1]
		out.jobMS = append(out.jobMS, (float64(last.Start-first.Start)+last.DurNS)/1e6)
	}
	return out
}

// collect hashes every job's fingerprint for the golden check and sums
// the simulated work.
func (r *replayRun) collect(jobs []sim.ReplayJob, results []*sim.ReplayResult) *iterOut {
	out := &iterOut{hashes: map[string]string{}}
	for i, res := range results {
		app := jobs[i].App.Name
		out.hashes[jobKey(app, jobs[i].Org)] = fmt.Sprintf("%016x", res.Fingerprint())
		out.jobs++
		out.instr += r.instr[app]
		out.l2Reqs += res.Requests
		if res.Org == defaultKey {
			ipc := 0.0
			if res.FinalClock > 0 {
				ipc = float64(r.instr[app]) / float64(res.FinalClock)
			}
			out.nu.add(ipc, res.FinalClock, res.Requests, res.L2EnergyNJ)
		}
	}
	return out
}

// traced decomposes ReplayAll into its public stages on a pool of the
// same width: one sim.ExtractTraceSource task per app over a timed
// generator (submitted first, as ReplayAll does), then one
// sim.ReplayTrace task per job with a timing-wrapped
// Organization.Factory. The results are
// byte-identical to ReplayAll's, which the golden fingerprints check.
func (r *replayRun) traced() *iterOut {
	traces := make([]sim.Trace, len(r.apps))
	ready := make([]chan struct{}, len(r.apps))
	var jobs []sim.ReplayJob
	var ctxs []*jobCtx
	results := make([]*sim.ReplayResult, 0, len(r.apps)*len(r.orgs))
	var tasks []func(tr *tracer)
	for i, app := range r.apps {
		i, app := i, app
		ready[i] = make(chan struct{})
		tasks = append(tasks, func(tr *tracer) {
			defer close(ready[i])
			job := app.Name + "/-"
			acc := newJobAcc()
			root := tr.begin("sim", "ExtractTrace", job, -1)
			traces[i] = sim.ExtractTraceSource(&timedSource{src: workload.MustNewGenerator(app, r.seed), acc: acc}, r.n)
			tr.end(root)
			tr.leaf("workload", "Source.Next", job, root, &acc.next)
		})
	}
	for i, app := range r.apps {
		for _, org := range r.orgs {
			i, app, org, k := i, app, org, len(jobs)
			jobs = append(jobs, sim.ReplayJob{App: app, Seed: r.seed, N: r.n, Org: org})
			ctxs = append(ctxs, nil)
			results = append(results, nil)
			tasks = append(tasks, func(tr *tracer) {
				<-ready[i]
				j := newJob(tr, app.Name, org)
				ctxs[k] = j
				results[k] = sim.ReplayTrace(r.model, j.org(org), traces[i])
				j.done()
			})
		}
	}
	trs, poolWall := runPool(replayWorkers, tasks)

	if r.instr == nil {
		r.instr = map[string]int64{}
		for i, app := range r.apps {
			r.instr[app.Name] = traces[i].Instructions
		}
	}
	out := r.collect(jobs, results)
	out.spans = merge(trs...)
	out.poolWallNS = poolWall
	busy := 0.0
	for _, s := range out.spans {
		if s.Parent < 0 {
			busy += s.DurNS
		}
	}
	out.idleNS = replayWorkers*poolWall - busy
	for k, j := range ctxs {
		out.jobMS = append(out.jobMS, j.tr.spans[j.root].DurNS/1e6)
		res := results[k]
		out.sim.addL2(j.layer, j.l2.inner, res.MemReads, res.MemWrites)
	}
	return out
}

// runPool runs tasks on w goroutines, handed out in submission order
// like the sim package's pool, each goroutine recording into its own
// tracer. It returns the tracers and the pool's wall time in ns. A task
// panic is re-raised on the caller once every task has run.
func runPool(w int, tasks []func(tr *tracer)) ([]*tracer, float64) {
	ch := make(chan func(tr *tracer))
	trs := make([]*tracer, w)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	start := now()
	wg.Add(w)
	for i := range trs {
		trs[i] = &tracer{worker: i}
		go func(tr *tracer) {
			defer wg.Done()
			for t := range ch {
				func() {
					defer func() {
						if p := recover(); p != nil {
							mu.Lock()
							panicked = p
							mu.Unlock()
						}
					}()
					t(tr)
				}()
			}
		}(trs[i])
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return trs, float64(now() - start)
}

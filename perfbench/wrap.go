package main

import (
	"strings"

	"nurapid/internal/cacti"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/sim"
	"nurapid/internal/stats"
	"nurapid/internal/workload"
)

// callStat counts the calls of one wrapped operation and sums the time of
// the sampled ones.
type callStat struct {
	calls, samples int64
	sampledNS      int64
	left           int64 // calls until the next sample
}

// estNS estimates the total time of all calls from the sampled ones.
func (c *callStat) estNS() float64 {
	if c.samples == 0 {
		return 0
	}
	return max(0, float64(c.sampledNS)*float64(c.calls)/float64(c.samples))
}

// jobAcc holds one job's per-call statistics. A job runs on one
// goroutine, so the wrappers update it without locking.
type jobAcc struct {
	next, l2, obsInL2, obsOut callStat
	inL2                      bool   // an L2 Access is in progress
	timingL2                  bool   // a sampled L2 Access is being timed
	rng                       uint64 // xorshift state for the sampling phase
}

func newJobAcc() *jobAcc { return &jobAcc{rng: 0x9E3779B97F4A7C15} }

// pick counts one call of c and reports whether to time it. Gaps between
// timed calls are uniform on [1, 2*sampleN-1], so periodic call patterns
// cannot alias with the sampling.
func (a *jobAcc) pick(c *callStat) bool {
	c.calls++
	c.left--
	if c.left > 0 {
		return false
	}
	a.rng ^= a.rng << 13
	a.rng ^= a.rng >> 7
	a.rng ^= a.rng << 17
	c.left = 1 + int64(a.rng%(2*sampleN-1))
	c.samples++
	return true
}

// timedSource wraps workload.Source.Next.
type timedSource struct {
	src workload.Source
	acc *jobAcc
}

func (s *timedSource) Next() (workload.Instr, bool) {
	if !s.acc.pick(&s.acc.next) {
		return s.src.Next()
	}
	t0 := now()
	in, ok := s.src.Next()
	s.acc.next.sampledNS += now() - t0 - clockCost
	return in, ok
}

// timedL2 wraps a memsys.LowerLevel. Access is counted and sampled;
// each AccessMany batch is recorded as a span. It forwards
// obs.Probeable, obs.LatencyProfiler and memsys.BatchAccessor to the
// organization, so wrapping neither drops probes nor the batched replay
// loop.
type timedL2 struct {
	inner  memsys.LowerLevel
	acc    *jobAcc
	tr     *tracer
	layer  string
	job    string
	parent int
}

func (w *timedL2) Name() string                      { return w.inner.Name() }
func (w *timedL2) Distribution() *stats.Distribution { return w.inner.Distribution() }
func (w *timedL2) EnergyNJ() float64                 { return w.inner.EnergyNJ() }
func (w *timedL2) Counters() *stats.Counters         { return w.inner.Counters() }

func (w *timedL2) Access(req memsys.Req) memsys.AccessResult {
	a := w.acc
	a.inL2 = true
	if !a.pick(&a.l2) {
		r := w.inner.Access(req)
		a.inL2 = false
		return r
	}
	a.timingL2 = true
	t0 := now()
	r := w.inner.Access(req)
	a.l2.sampledNS += now() - t0 - clockCost
	a.inL2, a.timingL2 = false, false
	return r
}

func (w *timedL2) AccessMany(at int64, reqs []memsys.Req, out []memsys.AccessResult) int64 {
	i := w.tr.begin(w.layer, "Access", w.job, w.parent)
	end := memsys.AccessMany(w.inner, at, reqs, out)
	w.tr.end(i)
	w.tr.spans[i].Calls = int64(len(reqs))
	return end
}

func (w *timedL2) SetProbe(p obs.Probe) {
	if pb, ok := w.inner.(obs.Probeable); ok {
		pb.SetProbe(p)
	}
}

func (w *timedL2) LatencyProfile() obs.LatencyProfile {
	if lp, ok := w.inner.(obs.LatencyProfiler); ok {
		return lp.LatencyProfile()
	}
	return obs.LatencyProfile{}
}

var (
	_ memsys.BatchAccessor = (*timedL2)(nil)
	_ obs.Probeable        = (*timedL2)(nil)
	_ obs.LatencyProfiler  = (*timedL2)(nil)
)

// timedProbe wraps obs.Probe.Emit, charging each event to the L2 when it
// is emitted inside an L2 Access and to the caller's layer otherwise.
type timedProbe struct {
	p   obs.Probe
	acc *jobAcc
}

func (t *timedProbe) Emit(e obs.Event) {
	c := &t.acc.obsOut
	if t.acc.inL2 {
		c = &t.acc.obsInL2
	}
	// An event inside a timed L2 Access is only counted: timing it would
	// add its clock reads to the L2 sample.
	if t.acc.timingL2 {
		c.calls++
		t.p.Emit(e)
		return
	}
	if !t.acc.pick(c) {
		t.p.Emit(e)
		return
	}
	t0 := now()
	t.p.Emit(e)
	c.sampledNS += now() - t0 - clockCost
}

// layerOf names the module an organization belongs to.
func layerOf(org sim.Organization) string {
	switch {
	case strings.HasPrefix(org.Key, "nurapid"):
		return "nurapid"
	case strings.HasPrefix(org.Key, "dnuca"):
		return "nuca"
	}
	return "uca"
}

// jobCtx is one traced (app, org) job: its tracer, root span, sampled
// call statistics, and the L2 its organization built.
type jobCtx struct {
	tr    *tracer
	job   string
	root  int
	layer string
	acc   *jobAcc
	l2    *timedL2
}

// newJob opens the job's root span, owned by the sim layer.
func newJob(tr *tracer, app string, org sim.Organization) *jobCtx {
	job := app + "/" + org.Key
	return &jobCtx{tr: tr, job: job, root: tr.begin("sim", "job", job, -1),
		layer: layerOf(org), acc: newJobAcc()}
}

// org returns org with a Factory that records the construction as a span
// of the organization's layer and hands out a timedL2.
func (j *jobCtx) org(org sim.Organization) sim.Organization {
	wrapped := org
	wrapped.Factory = func(m *cacti.Model, mem *memsys.Memory) memsys.LowerLevel {
		i := j.tr.begin(j.layer, "Factory", j.job, j.root)
		inner := org.Factory(m, mem)
		j.tr.end(i)
		j.l2 = &timedL2{inner: inner, acc: j.acc, tr: j.tr, layer: j.layer, job: j.job, parent: j.root}
		return j.l2
	}
	return wrapped
}

// source wraps src so its Next calls are counted and sampled.
func (j *jobCtx) source(src workload.Source) workload.Source {
	return &timedSource{src: src, acc: j.acc}
}

// run records fn as a span of layer under the job's root, with the
// sampled calls fn made as its children: Source.Next, the L2 Access
// (with the probe events emitted inside it as its child), and probe
// events emitted outside the L2.
func (j *jobCtx) run(layer, op string, fn func()) {
	i := j.tr.begin(layer, op, j.job, j.root)
	fn()
	j.tr.end(i)
	a := j.acc
	j.tr.leaf("workload", "Source.Next", j.job, i, &a.next)
	l2 := j.tr.leaf(j.layer, "Access", j.job, i, &a.l2)
	j.tr.leaf("obs", "Probe.Emit", j.job, l2, &a.obsInL2)
	j.tr.leaf("obs", "Probe.Emit", j.job, i, &a.obsOut)
	*a = *newJobAcc()
}

// done closes the job's root span.
func (j *jobCtx) done() { j.tr.end(j.root) }

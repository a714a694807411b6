package main

import (
	"sort"
	"time"
)

// epoch anchors every timestamp the benchmark takes; time.Since reads the
// monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// clock is the sim.WithClock source that stamps RunEvent.Elapsed.
func clock() time.Duration { return time.Since(epoch) }

// sampleN is the mean sampling interval of per-call timing: one call in
// sampleN (at a pseudo-random phase) is timed, every call is counted, and
// a layer's time is estimated as sampled time x calls / samples.
const sampleN = 64

// clockCost is the median length of one timed empty interval, subtracted
// from every sampled call so the clock reads are not charged to the
// callee. Set once by calibrate.
var clockCost int64

// calibrate measures clockCost.
func calibrate() {
	const n = 4001
	d := make([]int64, n)
	for i := range d {
		t0 := now()
		d[i] = now() - t0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	clockCost = d[n/2]
}

// span is one interval of one layer, recorded around a call into the
// layer's public interface. A sampled span stands for all calls of one
// operation made directly under its parent during one job: DurNS is then
// the estimate sampled-time x Calls / Samples, and Start is zero.
type span struct {
	Layer   string  `json:"layer"`
	Op      string  `json:"op"`
	Job     string  `json:"job"`
	Worker  int     `json:"worker"`
	Parent  int     `json:"parent"`
	Start   int64   `json:"start_ns,omitempty"`
	DurNS   float64 `json:"dur_ns"`
	Calls   int64   `json:"calls,omitempty"`
	Samples int64   `json:"samples,omitempty"`
}

// tracer records the spans of one goroutine in memory.
type tracer struct {
	worker int
	spans  []span
}

// begin opens a span and returns its index.
func (t *tracer) begin(layer, op, job string, parent int) int {
	t.spans = append(t.spans, span{Layer: layer, Op: op, Job: job, Worker: t.worker, Parent: parent, Start: now()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	t.spans[i].DurNS = float64(now() - t.spans[i].Start)
}

// leaf records a sampled span under parent and returns its index, or
// parent itself when no calls were made.
func (t *tracer) leaf(layer, op, job string, parent int, c *callStat) int {
	if c.calls == 0 {
		return parent
	}
	t.spans = append(t.spans, span{Layer: layer, Op: op, Job: job, Worker: t.worker, Parent: parent,
		DurNS: c.estNS(), Calls: c.calls, Samples: c.samples})
	return len(t.spans) - 1
}

// merge concatenates per-goroutine span lists, rebasing parent indices.
func merge(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// opStat is the self time and call count of one (layer, op) pair.
type opStat struct {
	selfNS float64
	calls  int64
}

// ledger attributes self time: a span's duration minus the durations of
// its direct children. The self times of all spans sum to the durations
// of the root spans, so the ledger reconciles with wall time up to the
// time no span covers.
type ledger struct {
	layers map[string]float64 // layer -> self ns
	ops    map[[2]string]*opStat
}

func newLedger() *ledger {
	return &ledger{layers: map[string]float64{}, ops: map[[2]string]*opStat{}}
}

func (l *ledger) add(spans []span) {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.DurNS
		}
	}
	for i, s := range spans {
		self := s.DurNS - child[i]
		l.layers[s.Layer] += self
		k := [2]string{s.Layer, s.Op}
		o := l.ops[k]
		if o == nil {
			o = &opStat{}
			l.ops[k] = o
		}
		o.selfNS += self
		o.calls += s.Calls
	}
}

// total is the summed self time of every layer.
func (l *ledger) total() float64 {
	t := 0.0
	for _, v := range l.layers {
		t += v
	}
	return t
}

// op returns the (layer, op) statistics, zero when absent.
func (l *ledger) op(layer, op string) opStat {
	if o := l.ops[[2]string{layer, op}]; o != nil {
		return *o
	}
	return opStat{}
}

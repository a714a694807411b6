package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median.
const setupReps = 25

// reconcileTolerance bounds the share of a traced iteration's worker
// time that no layer span covers (the benchmark's own table assembly,
// rendering and hashing).
const reconcileTolerance = 0.05

// metric is one named, unit-carrying value of the output.
type metric struct {
	name, unit string
	value      float64
}

// result is everything one benchmark run prints.
type result struct {
	stamp             hostStamp
	attempted, failed int
	reconciled        bool
	metrics           []metric
	notes             []string
	spans             [][]span // per traced iteration
}

// bencher runs iterations of one workload and keeps the tallies.
type bencher struct {
	run       workloadRun
	g         goldens
	name      string
	seed      uint64
	attempted int
	failed    int
	peak      atomic.Int64 // heap high-water mark since the last reset
}

// once runs one iteration after a collection, checks its outputs against
// the goldens, and returns it with its wall time and heap peak; nil if it
// panicked.
func (b *bencher) once(m mode) (out *iterOut, wallNS int64, peak int64) {
	runtime.GC()
	b.peak.Store(0)
	b.attempted += b.run.jobs()
	t0 := now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s iteration panicked: %v\n", b.name, p)
				out = nil
			}
		}()
		out = b.run.iterate(m)
	}()
	wallNS = now() - t0
	b.samplePeak()
	if out == nil {
		b.failed += b.run.jobs()
		return nil, wallNS, 0
	}
	if bad := b.g.mismatches(b.name, b.seed, out); bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d jobs differ from the goldens (mode %d)\n", b.name, bad, out.jobs, m)
		b.failed += bad
	}
	return out, wallNS, b.peak.Load()
}

// samplePeak folds the current heap size into the high-water mark.
func (b *bencher) samplePeak() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := int64(s[0].Value.Uint64())
	for {
		p := b.peak.Load()
		if v <= p || b.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// watchHeap samples the heap every millisecond until stop is closed.
func (b *bencher) watchHeap(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			b.samplePeak()
		}
	}
}

// readRuntime returns cumulative heap allocation bytes, GC CPU seconds
// and total CPU seconds.
func readRuntime() (alloc, gcCPU, cpu float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// runBench sets the workload up setupReps times, warms up with one
// traced and one untraced iteration, then alternates the iterations the
// mode needs until seconds of host time have passed.
func runBench(name string, seed uint64, seconds float64, trace bool, scale float64, g goldens) (*result, error) {
	calibrate()
	s := simSeed(seed)
	var setups []float64
	var run workloadRun
	for range setupReps {
		t0 := now()
		r, err := newRun(name, s, scale)
		setups = append(setups, float64(now()-t0)/1e9)
		if err != nil {
			return nil, err
		}
		run = r
	}
	b := &bencher{run: run, g: g, name: name, seed: s}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go b.watchHeap(stop, &wg)
	defer func() {
		close(stop)
		wg.Wait()
	}()

	probed := name == "cmp4-shared-probed"
	b.once(traced)
	b.once(untraced)
	if trace && probed {
		b.once(unprobed)
	}

	var un, tr []*iterOut
	var unWall, trWall, unprobedWall, peaks []float64
	var allocBytes float64
	var unInstr int64
	_, gc0, cpu0 := readRuntime()
	start := now()
	for {
		a, _, _ := readRuntime()
		if out, w, p := b.once(untraced); out != nil {
			out.wallNS = w
			un = append(un, out)
			unWall = append(unWall, float64(w))
			peaks = append(peaks, float64(p))
			a1, _, _ := readRuntime()
			allocBytes += a1 - a
			unInstr += out.instr
		}
		if trace {
			if out, w, _ := b.once(traced); out != nil {
				out.wallNS = w
				tr = append(tr, out)
				trWall = append(trWall, float64(w))
			}
			if probed {
				if out, w, _ := b.once(unprobed); out != nil {
					unprobedWall = append(unprobedWall, float64(w))
				}
			}
		}
		if float64(now()-start) >= seconds*1e9 {
			break
		}
	}
	_, gc1, cpu1 := readRuntime()

	res := &result{stamp: newHostStamp(name, seed, seconds, trace, scale),
		attempted: b.attempted, failed: b.failed, reconciled: true}
	if len(un) == 0 || (trace && len(tr) == 0) {
		res.notes = append(res.notes, "no iteration completed")
		res.reconciled = false
		return res, nil
	}
	res.notes = append(res.notes, fmt.Sprintf("iterations: %d untraced, %d traced; jobs attempted %d, failed %d; failed_frac %.4f",
		len(un), len(tr), b.attempted, b.failed, float64(b.failed)/float64(b.attempted)))
	if !trace {
		res.endToEnd(un, unWall, peaks, setups)
		return res, nil
	}
	over := median(trWall)/median(unWall) - 1
	obsOver := 0.0
	if len(unprobedWall) > 0 {
		obsOver = median(unWall)/median(unprobedWall) - 1
	}
	gcFrac := 0.0
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	allocPerInstr := 0.0
	if unInstr > 0 {
		allocPerInstr = allocBytes / float64(unInstr)
	}
	res.perLayer(run.workers(), tr, over, obsOver, gcFrac, allocPerInstr)
	return res, nil
}

// endToEnd computes the end-to-end metrics from untraced iterations:
// per-iteration rates and heap peaks are reduced by their median.
func (r *result) endToEnd(un []*iterOut, walls, peaks, setups []float64) {
	var minstr, mreq, jobs []float64
	for _, o := range un {
		sec := float64(o.wallNS) / 1e9
		minstr = append(minstr, float64(o.instr)/sec/1e6)
		mreq = append(mreq, float64(o.l2Reqs)/sec/1e6)
		jobs = append(jobs, o.jobMS...)
	}
	nu := un[len(un)-1].nu
	r.metrics = []metric{
		{"setup_s", "s", median(setups)},
		{"sim_minstr_per_s", "Minstr/s", median(minstr)},
		{"l2_mreq_per_s", "Mreq/s", median(mreq)},
		{"job_ms_p50", "ms", percentile(jobs, 50)},
		{"job_ms_p90", "ms", percentile(jobs, 90)},
		{"peak_heap_mb", "MB", median(peaks) / (1 << 20)},
		{"sim_ipc", "instr/cycle", nu.ipcSum / float64(nu.runs)},
		{"sim_cycles_per_req", "cycles/req", float64(nu.cycles) / float64(nu.reqs)},
		{"l2_nj_per_access", "nJ/access", nu.energyNJ / float64(nu.reqs)},
	}
	r.notes = append(r.notes, fmt.Sprintf("job_ms percentiles over %d jobs; iteration wall median %.1f ms",
		len(jobs), median(walls)/1e6))
}

// perLayer computes the per-layer metrics of the traced iterations.
func (r *result) perLayer(workers int, tr []*iterOut, traceOver, obsOver, gcFrac, allocPerInstr float64) {
	l := newLedger()
	var capacity, idle, busy, poolCap, tracegen float64
	for _, o := range tr {
		l.add(o.spans)
		r.spans = append(r.spans, o.spans)
		c := float64(o.wallNS)
		if o.poolWallNS > 0 {
			c += float64(workers-1) * o.poolWallNS
			poolCap += float64(workers) * o.poolWallNS
		} else {
			poolCap += float64(o.wallNS)
		}
		capacity += c
		idle += o.idleNS
		for _, s := range o.spans {
			if s.Parent < 0 {
				busy += s.DurNS
			}
			if s.Op == "ExtractTrace" {
				tracegen += s.DurNS
			}
		}
	}
	n := float64(len(tr))
	st := tr[len(tr)-1].sim
	frac := func(layer string) float64 { return l.layers[layer] / capacity }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perCall := func(layer, op string) float64 {
		o := l.op(layer, op)
		return div(o.selfNS, float64(o.calls))
	}
	l2s := func(layer string) l2Stats {
		if t := st.l2[layer]; t != nil {
			return *t
		}
		return l2Stats{}
	}
	nu, nc := l2s("nurapid"), l2s("nuca")
	l2Calls := float64(l.op("nurapid", "Access").calls + l.op("nuca", "Access").calls + l.op("uca", "Access").calls)
	obsOp := l.op("obs", "Probe.Emit")
	residual := capacity - l.total() - idle

	r.metrics = []metric{
		{"workload.calls", "count", float64(l.op("workload", "Source.Next").calls) / n},
		{"workload.ns_per_call", "ns", perCall("workload", "Source.Next")},
		{"workload.self_frac", "ratio", frac("workload")},
		{"cpu.ns_per_instr", "ns", div(l.layers["cpu"], float64(st.cpuInstr)*n)},
		{"cpu.self_frac", "ratio", frac("cpu")},
		{"cpu.sim_cpi", "cycles/instr", div(float64(st.cpuCycles), float64(st.cpuInstr))},
		{"cpu.l1d_miss_ratio", "ratio", div(float64(st.l1dMiss), float64(st.l1dAcc))},
		{"cpu.l1i_miss_ratio", "ratio", div(float64(st.l1iMiss), float64(st.l1iAcc))},
		{"cpu.l2_apki", "1/kinstr", div(float64(st.cpuL2)*1000, float64(st.cpuInstr))},
		{"nurapid.ns_per_access", "ns", perCall("nurapid", "Access")},
		{"nurapid.self_frac", "ratio", frac("nurapid")},
		{"nuca.ns_per_access", "ns", perCall("nuca", "Access")},
		{"nuca.self_frac", "ratio", frac("nuca")},
		{"uca.ns_per_access", "ns", perCall("uca", "Access")},
		{"uca.self_frac", "ratio", frac("uca")},
		{"nurapid.hit_ratio", "ratio", div(float64(nu.hits), float64(nu.accesses))},
		{"nurapid.g1_frac", "ratio", div(float64(nu.g1Hits), float64(nu.accesses))},
		{"nurapid.swaps_per_kacc", "1/kacc", div(float64(nu.promotions)*1000, float64(nu.accesses))},
		{"nurapid.demotions_per_kacc", "1/kacc", div(float64(nu.demotions)*1000, float64(nu.accesses))},
		{"nurapid.memo_hit_ratio", "ratio", div(float64(nu.memo), float64(nu.hits))},
		{"nurapid.bypass_ratio", "ratio", div(float64(nu.byps), float64(nu.hits))},
		{"nuca.hit_ratio", "ratio", div(float64(nc.hits), float64(nc.accesses))},
		{"memsys.reads_per_kacc", "1/kacc", div(float64(st.memReads)*1000, float64(st.l2Total()))},
		{"memsys.writes_per_kacc", "1/kacc", div(float64(st.memWrites)*1000, float64(st.l2Total()))},
		{"cmp.self_frac", "ratio", frac("cmp")},
		{"cmp.queue_wait_per_access", "cycles", div(float64(st.cmpStall), float64(st.cmpAccesses))},
		{"cmp.bank_conflict_ratio", "ratio", div(float64(st.cmpConflicts), float64(st.cmpAccesses))},
		{"cmp.invals_per_kwrite", "1/kwrite", div(float64(st.cmpInvals)*1000, float64(st.cmpWrites))},
		{"cmp.fairness", "ratio", div(st.cmpFairSum, float64(st.cmpRuns))},
		{"obs.events_per_access", "count", div(float64(obsOp.calls), l2Calls)},
		{"obs.ns_per_event", "ns", div(obsOp.selfNS, float64(obsOp.calls))},
		{"obs.overhead_frac", "ratio", obsOver},
		{"sim.self_frac", "ratio", frac("sim")},
		{"sim.pool_util", "ratio", div(busy, poolCap)},
		{"sim.tracegen_frac", "ratio", tracegen / capacity},
		{"sim.alloc_bytes_per_instr", "B/instr", allocPerInstr},
		{"sim.gc_cpu_frac", "ratio", gcFrac},
		{"trace.overhead_frac", "ratio", traceOver},
		{"trace.residual_frac", "ratio", residual / capacity},
	}

	// The ledger table: each layer's self time, then pool idle and the
	// residual no span covers. The rows sum to the worker time.
	layers := make([]string, 0, len(l.layers))
	for k := range l.layers {
		layers = append(layers, k)
	}
	sort.Slice(layers, func(i, j int) bool { return l.layers[layers[i]] > l.layers[layers[j]] })
	r.notes = append(r.notes, fmt.Sprintf("ledger over %d traced iterations, %.3f s of worker time (%d worker(s)); per-call timing sampled 1-in-%d",
		len(tr), capacity/1e9, workers, sampleN))
	for _, k := range layers {
		r.notes = append(r.notes, fmt.Sprintf("  %-10s %10.3f s  %6.2f%%", k, l.layers[k]/1e9, 100*l.layers[k]/capacity))
	}
	r.notes = append(r.notes,
		fmt.Sprintf("  %-10s %10.3f s  %6.2f%%", "(idle)", idle/1e9, 100*idle/capacity),
		fmt.Sprintf("  %-10s %10.3f s  %6.2f%%  (tolerance %.0f%%)", "(residual)", residual/1e9, 100*residual/capacity, 100*reconcileTolerance),
		fmt.Sprintf("  trace.overhead_frac %.4f (traced wall / untraced wall - 1)", traceOver))
	if abs := residual / capacity; abs > reconcileTolerance || abs < -reconcileTolerance {
		r.reconciled = false
		r.notes = append(r.notes, "  RECONCILIATION FAILED: layer self times do not sum to the worker time")
	}
}

// print writes the host stamp, the notes and the metric table.
func (r *result) print(w io.Writer) {
	stamp, _ := json.Marshal(r.stamp)
	fmt.Fprintf(w, "host %s\n", stamp)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// summary is the final JSON line.
func (r *result) summary() map[string]any {
	ms := map[string]any{}
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0 && r.reconciled && len(r.metrics) > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   ms,
	}
}

// writeSpans writes the host stamp and every traced iteration's spans as
// JSON lines into dir.
func (r *result) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.stamp.Workload, r.stamp.Seed)))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"host": r.stamp}); err != nil {
		return err
	}
	for i, spans := range r.spans {
		for _, s := range spans {
			if err := enc.Encode(struct {
				Iter int `json:"iter"`
				span
			}{i, s}); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

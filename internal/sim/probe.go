package sim

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/stats"
)

// ProbeFactory builds one probe per executed run. It is called once per
// (app, org) simulation — memoized duplicates never see it — from
// whichever goroutine executes the run, so factories must be safe for
// concurrent calls but the probes they return need no locking (a run's
// events are emitted from a single goroutine). Returning nil opts the
// run out of probing entirely.
type ProbeFactory func(app, org string) obs.Probe

// noteProbeErr latches the first probe-plumbing error (trace file
// creation, sink flush, an organization that cannot accept probes).
// Probing is observability, not simulation: errors never abort a run,
// they surface through ProbeErr after the experiment completes.
func (r *Runner) noteProbeErr(err error) {
	if err == nil {
		return
	}
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	if r.probeErr == nil {
		r.probeErr = err
	}
}

// ProbeErr reports the first error hit while wiring or closing probes,
// if any. Callers using WithTrace should check it after their runs.
func (r *Runner) ProbeErr() error {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	return r.probeErr
}

// buildProbes assembles the probe chain for one run: the WithProbe
// factory's probe (if any) followed by a WithTrace JSONL sink (if any).
func (r *Runner) buildProbes(app, org string) []obs.Probe {
	var ps []obs.Probe
	if r.probe != nil {
		if p := r.probe(app, org); p != nil {
			ps = append(ps, p)
		}
	}
	if r.traceDir != "" {
		f, err := os.Create(filepath.Join(r.traceDir, app+"__"+org+".jsonl"))
		if err != nil {
			r.noteProbeErr(err)
		} else {
			ps = append(ps, obs.NewTraceSink(f))
		}
	}
	return ps
}

// instrument attaches the run's probe chain to l2 and returns the
// probes so finishProbes can harvest and close them after the run.
// With no probes configured it returns nil and l2 keeps its nil-probe
// fast path.
func (r *Runner) instrument(app, org string, l2 memsys.LowerLevel) []obs.Probe {
	ps := r.buildProbes(app, org)
	if len(ps) == 0 {
		return nil
	}
	pb, ok := l2.(obs.Probeable)
	if !ok {
		r.noteProbeErr(fmt.Errorf("sim: organization %s does not accept probes", org))
		r.closeProbes(ps)
		return nil
	}
	pb.SetProbe(obs.Multi(ps...))
	return ps
}

// finishProbes closes the run's probes (trace sinks flush here) after
// harvesting their metrics snapshots, which it returns; nil when the
// run was not probed.
func (r *Runner) finishProbes(ps []obs.Probe) []stats.KV {
	var kvs []stats.KV
	for _, p := range ps {
		if s, ok := p.(interface{ Snapshot() []stats.KV }); ok {
			kvs = append(kvs, s.Snapshot()...)
		}
	}
	r.closeProbes(ps)
	return kvs
}

// closeProbes closes every probe that is an io.Closer, latching the
// first error.
func (r *Runner) closeProbes(ps []obs.Probe) {
	for _, p := range ps {
		if c, ok := p.(io.Closer); ok {
			r.noteProbeErr(c.Close())
		}
	}
}

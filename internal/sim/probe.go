package sim

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

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

// instrument composes the run's probes (obs.Multi) and attaches them
// to target, the run's organization or CMP system, returning the
// composed probe for finishProbe to harvest and close after the run.
// last, when set, builds one more member, appended only when the run
// has other probes. With no probes configured it returns nil and
// target keeps its nil-probe fast path.
func (r *Runner) instrument(app, org string, target any, last func() obs.Probe) obs.Probe {
	ps := r.buildProbes(app, org)
	if len(ps) == 0 {
		return nil
	}
	if last != nil {
		ps = append(ps, last())
	}
	probe := obs.Multi(ps...)
	pb, ok := target.(obs.Probeable)
	if !ok {
		r.noteProbeErr(fmt.Errorf("sim: organization %s does not accept probes", org))
		r.finishProbe(probe)
		return nil
	}
	pb.SetProbe(probe)
	return probe
}

// finishProbe harvests the run's composed probe — every member's
// Snapshot, in fan-out order — and then closes it (trace sinks flush
// here), latching the first error. It returns nil when the run was not
// probed.
func (r *Runner) finishProbe(probe obs.Probe) []stats.KV {
	var kvs []stats.KV
	if s, ok := probe.(interface{ Snapshot() []stats.KV }); ok {
		kvs = s.Snapshot()
	}
	if c, ok := probe.(io.Closer); ok {
		r.noteProbeErr(c.Close())
	}
	return kvs
}

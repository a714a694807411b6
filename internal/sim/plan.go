package sim

import (
	"fmt"
	"strings"

	"nurapid/internal/cpu"
	"nurapid/internal/workload"
)

// runSet is one experiment's declared simulations and the closure that
// assembles it: build reads only memoized results of (apps x orgs), so
// prefetching the set first leaves build nothing to simulate.
type runSet struct {
	apps []workload.App
	orgs []Organization
	// cmp runs the set through RunCMP instead of Run.
	cmp   bool
	build func() *Experiment
}

// experiments is the one list of experiments, paper campaign first in
// paper order. All, ByID, ExperimentIDs and the campaign prefetch read it.
var experiments = []struct {
	id string
	// paper marks the campaign All runs: single-core runs over the
	// roster, whose organizations All prefetches as one union.
	paper bool
	plan  func(*Runner) runSet
}{
	{"table1", true, noRuns((*Runner).Table1)},
	{"table2", true, noRuns((*Runner).Table2)},
	{"table3", true, (*Runner).table3},
	{"table4", true, noRuns((*Runner).Table4)},
	{"fig4", true, (*Runner).fig4},
	{"fig5", true, (*Runner).fig5},
	{"fig6", true, (*Runner).fig6},
	{"lru", true, (*Runner).lruStudy},
	{"fig7", true, (*Runner).fig7},
	{"fig8", true, (*Runner).fig8},
	{"fig9", true, (*Runner).fig9},
	{"fig10", true, (*Runner).fig10},
	{"fig11", true, (*Runner).fig11},
	{"ablation", true, (*Runner).ablation},
	{"predictor", false, (*Runner).predictorStudy},
	{"sweep-capacity", false, (*Runner).capacitySweep},
	{"sweep-block", false, (*Runner).blockSweep},
	{"sweep-tech", false, (*Runner).techSweep},
	{"cmp", false, (*Runner).cmpStudy},
}

// noRuns plans an experiment that simulates nothing.
func noRuns(build func(*Runner) *Experiment) func(*Runner) runSet {
	return func(r *Runner) runSet { return runSet{build: func() *Experiment { return build(r) }} }
}

// variant is one labeled organization of a comparison.
type variant struct {
	label string
	org   Organization
}

// orgsOf returns lead followed by the organizations of vs.
func orgsOf(vs []variant, lead ...Organization) []Organization {
	orgs := append([]Organization(nil), lead...)
	for _, v := range vs {
		orgs = append(orgs, v.org)
	}
	return orgs
}

// ExperimentIDs returns the id of every experiment ByID runs, in table
// order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// prefetch simulates every run of p not yet memoized on the worker
// pool and blocks until all are done. Each experiment calls it with its
// full run set up front, then assembles its table from memoized results
// in deterministic order; a standalone Run or RunCMP calls it with its
// one run.
//
// Runs go out app by app as one group each (schedule, runPool): the
// front-end lane records the app's front end (its stream, or for a CMP
// set its fronts) while the workers time the apps before it, then its
// organizations' runs time it; the last of them retires it. So each app
// is recorded once, at most workers+1 front ends are held (two on a
// serial Runner), and each run's RunEvent.Elapsed stays the cost of its
// own organization.
func (r *Runner) prefetch(p runSet) {
	var groups []group
	for _, app := range p.apps {
		var runs []func(*shared[[]*cpu.Stream])
		r.mu.Lock()
		for _, org := range p.orgs {
			if !p.cmp && r.memo[runKey(app.Name, org.Key)] == nil {
				runs = append(runs, func(fe *shared[[]*cpu.Stream]) { r.run(app, org, fe) })
			} else if p.cmp && r.cmpMemo[runKey(app.Name, r.cmpLabel(org))] == nil {
				runs = append(runs, func(fe *shared[[]*cpu.Stream]) { r.runCMP(app, org, fe) })
			}
		}
		r.mu.Unlock()
		if len(runs) > 0 {
			groups = schedule(groups, r.frontEnds(), r.frontKey(app, p.cmp), "front-end", r.recorder(app, p.cmp), runs)
		}
	}
	runPool(r.workers, groups)
}

// execute prefetches p's run set, then assembles its experiment.
func (r *Runner) execute(p runSet) *Experiment {
	r.prefetch(p)
	return p.build()
}

// All runs every paper experiment in paper order, then the ablations.
// The union of their organizations is prefetched over the roster in
// one pool pass first, so a parallel runner keeps every worker busy
// across experiment boundaries instead of draining the pool at each
// experiment's barrier, and each app's front end is recorded once for
// the whole campaign.
func (r *Runner) All() []*Experiment {
	var (
		plans []runSet
		orgs  []Organization
		seen  = map[string]bool{}
	)
	for _, e := range experiments {
		if !e.paper {
			continue
		}
		p := e.plan(r)
		plans = append(plans, p)
		for _, org := range p.orgs {
			if !seen[org.Key] {
				seen[org.Key] = true
				orgs = append(orgs, org)
			}
		}
	}
	r.prefetch(runSet{apps: r.apps, orgs: orgs})
	exps := make([]*Experiment, len(plans))
	for i, p := range plans {
		exps[i] = r.execute(p)
	}
	return exps
}

// ByID runs the experiment with the given id, or returns an error
// listing the valid ids.
func (r *Runner) ByID(id string) (*Experiment, error) {
	for _, e := range experiments {
		if e.id == id {
			return r.execute(e.plan(r)), nil
		}
	}
	return nil, fmt.Errorf("sim: unknown experiment %q (valid: %s)", id, strings.Join(ExperimentIDs(), ", "))
}

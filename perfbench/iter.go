package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/sim"
	"nurapid/internal/stats"
)

// mode selects how one iteration runs.
type mode int

const (
	untraced mode = iota // the public API, no wrappers: end-to-end metrics
	traced               // decomposed into public stages behind timing wrappers
	unprobed             // cmp only: the untraced pass without the probe factory
)

// workloadRun is one workload set up at one seed and size.
type workloadRun interface {
	// iterate runs one whole iteration; the outputs it hashes are checked
	// against the goldens by the caller.
	iterate(m mode) *iterOut
	// workers is the number of goroutines the iteration keeps busy.
	workers() int
	// jobs is the number of (app, org) jobs in one iteration.
	jobs() int
}

// defaultKey is the key of the paper's default NuRAPID organization,
// whose runs supply the sim_* metrics.
var defaultKey = sim.NuRAPID(nurapid.DefaultConfig()).Key

// nuStats accumulates the default NuRAPID organization's simulated
// figures for the sim_* metrics.
type nuStats struct {
	ipcSum   float64
	runs     int
	cycles   int64
	reqs     int64
	energyNJ float64
}

func (n *nuStats) add(ipc float64, cycles, reqs int64, energyNJ float64) {
	n.ipcSum += ipc
	n.runs++
	n.cycles += cycles
	n.reqs += reqs
	n.energyNJ += energyNJ
}

// iterOut is what one iteration produced.
type iterOut struct {
	wallNS int64
	jobs   int
	hashes map[string]string // golden key -> hash of the output
	render []byte            // rendered experiment (fig6, cmp)
	jobMS  []float64         // host time of each (app, org) job
	instr  int64             // simulated instructions
	l2Reqs int64             // simulated L2 requests
	nu     nuStats

	// Traced iterations only.
	spans      []span
	poolWallNS float64 // wall time of the worker pool, if one ran
	idleNS     float64 // pool worker time outside any task
	sim        simStats
}

// setRender records the experiment's rendered bytes and their hash.
func (o *iterOut) setRender(e *sim.Experiment) {
	var buf bytes.Buffer
	if err := e.Render(&buf, false); err != nil {
		panic(fmt.Sprintf("perfbench: render %s: %v", e.ID, err))
	}
	o.render = buf.Bytes()
	o.hashes = map[string]string{"render": fnvHex(o.render)}
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// kv indexes a metrics snapshot by name.
func kv(s []stats.KV) map[string]float64 {
	m := make(map[string]float64, len(s))
	for _, e := range s {
		m[e.Name] = e.Value
	}
	return m
}

// blockBytes is the organization's block size; zero means 128 B.
func blockBytes(org sim.Organization) int {
	if org.BlockBytes > 0 {
		return org.BlockBytes
	}
	return 128
}

// l2Stats is the simulated activity of one L2 module, summed over jobs.
type l2Stats struct {
	accesses, hits, g1Hits            int64
	promotions, demotions, memo, byps int64
}

// simStats is the simulated activity behind the per-layer ratios,
// summed over the jobs of one traced iteration. Simulation is
// deterministic, so every traced iteration of a run yields the same.
type simStats struct {
	cpuInstr, cpuCycles              int64
	l1dAcc, l1dMiss, l1iAcc, l1iMiss int64
	cpuL2                            int64
	l2                               map[string]*l2Stats
	memReads, memWrites              int64

	cmpAccesses, cmpWrites, cmpStall int64
	cmpConflicts, cmpInvals          int64
	cmpFairSum                       float64
	cmpRuns                          int
}

func (s *simStats) addCPU(r cpu.Result) {
	s.cpuInstr += r.Instructions
	s.cpuCycles += r.Cycles
	s.l1dAcc += r.L1DAccesses
	s.l1dMiss += r.L1DMisses
	s.l1iAcc += r.L1IAccesses
	s.l1iMiss += r.L1IMisses
	s.cpuL2 += r.L2Accesses
}

// addL2 folds one organization's final state into its module's totals.
func (s *simStats) addL2(layer string, l2 memsys.LowerLevel, memReads, memWrites int64) {
	if s.l2 == nil {
		s.l2 = map[string]*l2Stats{}
	}
	t := s.l2[layer]
	if t == nil {
		t = &l2Stats{}
		s.l2[layer] = t
	}
	d := l2.Distribution()
	t.accesses += d.Total()
	t.hits += d.Total() - d.MissCount()
	if d.NumCategories() > 0 {
		t.g1Hits += d.HitCount(0)
	}
	c := l2.Counters()
	t.promotions += c.Get("promotions")
	t.demotions += c.Get("demotions")
	t.memo += c.Get("memo_hits")
	t.byps += c.Get("bypasses")
	s.memReads += memReads
	s.memWrites += memWrites
}

// l2Total is the L2 accesses of every module.
func (s *simStats) l2Total() int64 {
	var n int64
	for _, t := range s.l2 {
		n += t.accesses
	}
	return n
}

package cmp

import (
	"fmt"

	"nurapid/internal/cpu"
	"nurapid/internal/memsys"
	"nurapid/internal/obs"
	"nurapid/internal/workload"
)

// Sharing selects how the per-core instruction streams relate.
type Sharing int

const (
	// Shared gives every core the identical stream: same seed, same
	// addresses — full constructive and destructive sharing, the worst
	// case for coherence shoot-downs and the best for shared-L2 reuse.
	Shared Sharing = iota
	// Private seeds each core independently and offsets its address
	// space so no block is ever shared: pure capacity and bandwidth
	// contention, no coherence traffic.
	Private
)

// String implements fmt.Stringer.
func (s Sharing) String() string {
	switch s {
	case Shared:
		return "shared"
	case Private:
		return "private"
	default:
		return fmt.Sprintf("Sharing(%d)", int(s))
	}
}

// ParseSharing maps the -sharing flag spellings to a Sharing.
func ParseSharing(s string) (Sharing, error) {
	switch s {
	case "shared":
		return Shared, nil
	case "private":
		return Private, nil
	default:
		return 0, fmt.Errorf("cmp: unknown sharing pattern %q (valid: shared, private)", s)
	}
}

// privateStride separates private per-core address spaces by 64 GB —
// far above any generated working set, so streams never alias.
const privateStride = uint64(1) << 36

// Config parameterizes a CMP system.
type Config struct {
	// Cores is the number of out-of-order cores (>= 1).
	Cores int
	// Sharing selects the workload sharing pattern.
	Sharing Sharing
	// Queue configures the shared-L2 bank queues; the zero value means
	// DefaultQueueConfig(Cores).
	Queue QueueConfig
	// L1EnergyNJ is the per-L1-access energy charged by each core.
	L1EnergyNJ float64
}

// System is N cores over one shared lower level, timed together by
// cpu.Lockstep.
type System struct {
	cfg    Config
	queue  *Queue
	fronts []coreFront
	cores  []*cpu.CPU

	invalidations int64

	// probe observes coherence events (KindInval); the queue and the
	// shared organization share the same probe via SetProbe.
	probe obs.Probe
}

// New builds a CMP system over the shared organization l2. The queue
// model owns the only path to l2; each core's misses go
// core -> coreFront (coherence) -> Queue (bank arbitration) -> l2.
func New(l2 memsys.LowerLevel, cfg Config) (*System, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("cmp: Cores must be >= 1, got %d", cfg.Cores)
	}
	qcfg := cfg.Queue
	if qcfg == (QueueConfig{}) {
		qcfg = DefaultQueueConfig(cfg.Cores)
	} else if qcfg.Cores == 0 {
		qcfg.Cores = cfg.Cores
	}
	if qcfg.Cores < cfg.Cores {
		return nil, fmt.Errorf("cmp: Queue.Cores = %d < Cores = %d", qcfg.Cores, cfg.Cores)
	}
	queue, err := NewQueue(l2, qcfg)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, queue: queue}
	s.fronts = make([]coreFront, cfg.Cores)
	s.cores = make([]*cpu.CPU, cfg.Cores)
	for i := range s.fronts {
		s.fronts[i] = coreFront{Queue: queue, sys: s, core: i}
		c, err := cpu.New(&s.fronts[i], cpu.WithL1EnergyNJ(cfg.L1EnergyNJ))
		if err != nil {
			return nil, err
		}
		s.cores[i] = c
	}
	return s, nil
}

// SetProbe implements obs.Probeable for the whole shared side: the
// probe receives the system's coherence shoot-down events plus the
// queue's and the wrapped organization's streams, all in the canonical
// per-access order. Call before Run; nil restores the fast path
// everywhere.
func (s *System) SetProbe(p obs.Probe) {
	s.probe = p
	s.queue.SetProbe(p)
}

// Release hands the cores' L1Ds, and the shared organization's storage
// when it is a memsys.Releaser, back to the process-wide free lists
// once the run's results are harvested; any later run or access panics.
func (s *System) Release() {
	cpu.Release(s.cores...)
	if r, ok := s.queue.l2.(memsys.Releaser); ok {
		r.Release()
	}
}

// Queue exposes the shared bank-queue model (contention figures).
func (s *System) Queue() *Queue { return s.queue }

// Sources builds the instruction sources of app at seed under the
// configured sharing pattern. Shared returns one source, the stream
// every core runs (identical streams, truly shared blocks); Private
// returns one per core, each core's seed perturbed and its address
// space offset by privateStride so streams never alias.
func (s *System) Sources(app workload.App, seed uint64) ([]workload.Source, error) {
	return s.cfg.Sources(app, seed)
}

// Sources is System.Sources for a system configured by c.
func (c Config) Sources(app workload.App, seed uint64) ([]workload.Source, error) {
	switch c.Sharing {
	case Shared:
		g, err := workload.NewGenerator(app, seed)
		if err != nil {
			return nil, err
		}
		return []workload.Source{g}, nil
	case Private:
		srcs := make([]workload.Source, c.Cores)
		for i := range srcs {
			g, err := workload.NewGenerator(app, seed+uint64(i)*0x9E37_79B9_7F4A_7C15)
			if err != nil {
				return nil, err
			}
			srcs[i] = &offsetSource{src: g, offset: uint64(i) * privateStride}
		}
		return srcs, nil
	default:
		return nil, fmt.Errorf("cmp: unknown sharing pattern %d", c.Sharing)
	}
}

// RecordFronts records the first maxInstrPerCore instructions of each
// source as a front for the system's cores (cpu.Stream.RecordFront),
// into reuse's streams where it has them. A Private core's front is
// based at its address-space offset. A run's fronts depend only on its
// sources, not on the shared organization, so one recording serves a
// run on every organization.
func RecordFronts(srcs []workload.Source, maxInstrPerCore int64, reuse []*cpu.Stream) []*cpu.Stream {
	for len(reuse) < len(srcs) {
		reuse = append(reuse, &cpu.Stream{})
	}
	fronts := reuse[:len(srcs)]
	for i, src := range srcs {
		var base uint64
		if o, ok := src.(*offsetSource); ok {
			base = o.offset
		}
		if err := fronts[i].RecordFront(src, maxInstrPerCore, cpu.DefaultConfig(), base); err != nil {
			panic(fmt.Sprintf("cmp: the cores' configuration rejected: %v", err))
		}
	}
	return fronts
}

// Run records each source's front (RecordFronts), then runs the cores on
// them (RunFronts): srcs are what Sources returns.
func (s *System) Run(srcs []workload.Source, maxInstrPerCore int64) Result {
	return s.RunFronts(RecordFronts(srcs, maxInstrPerCore, nil))
}

// RunFronts runs every core on its front until each retires its
// front's budget (or the whole recording, if its source ended first),
// through cpu.Lockstep: requests and shoot-downs come in the order of a
// cycle-by-cycle loop whose core order rotates round-robin, so no core
// gets a standing first-access advantage at the shared queue, and runs
// stay deterministic. fronts are those of what Sources returns: one,
// which every core runs, under Shared, one per core under Private. It
// only reads them, so they may serve other runs too.
func (s *System) RunFronts(fronts []*cpu.Stream) Result {
	cpu.Lockstep(s.cores, fronts)
	return s.Result()
}

// shootDown invalidates addr's block from every L1D except the writer's
// own — the coherence-lite model: a write reaching the shared level
// makes every other private copy stale, and stale copies are dropped
// without writeback because the writer's data supersedes them. done is
// the cycle the write's shared-level access completed; each dropped
// copy emits one KindInval stamped with it, closing the access's event
// window after the outcome.
//
//nurapid:hotpath
func (s *System) shootDown(writer int, addr uint64, done int64) {
	for i := range s.cores {
		if i == writer {
			continue
		}
		if s.cores[i].InvalidateL1(addr) {
			s.invalidations++
			if s.probe != nil {
				s.probe.Emit(obs.Inval(done, addr, i))
			}
		}
	}
}

// coreFront is one core's view of the shared queue: it stamps the core
// id on every request and runs the coherence-lite shoot-down for writes
// reaching the shared level; the rest of memsys.LowerLevel is the
// queue's.
type coreFront struct {
	*Queue
	sys  *System
	core int
}

// Access implements memsys.LowerLevel for one core's private view of
// the shared level. The shoot-down runs after the queued access
// returns — the write is coherence-visible once the shared level
// accepted it, and nothing else executes in between (one goroutine, one
// lockstep event at a time), so the reorder is invisible to simulated
// state while keeping KindInval events after the access window's
// outcome.
//
//nurapid:hotpath
func (f *coreFront) Access(req memsys.Req) memsys.AccessResult {
	req.Core = f.core
	r := f.Queue.Access(req)
	if req.Write {
		f.sys.shootDown(f.core, req.Addr, r.DoneAt)
	}
	return r
}

var _ memsys.LowerLevel = (*coreFront)(nil)

// offsetSource shifts a stream's data and fetch addresses by a fixed
// offset, giving each Private-mode core a disjoint address space.
type offsetSource struct {
	src    workload.Source
	offset uint64
}

// Next implements workload.Source.
func (o *offsetSource) Next() (workload.Instr, bool) {
	in, ok := o.src.Next()
	if !ok {
		return in, false
	}
	in.PC += o.offset
	if in.Addr != 0 {
		in.Addr += o.offset
	}
	return in, true
}

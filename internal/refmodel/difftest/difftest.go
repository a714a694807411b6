// Package difftest is the differential correctness harness for the
// NuRAPID cache: it drives internal/nurapid (the fast implementation) and
// internal/refmodel (the executable specification) with identical access
// sequences and reports the first observable disagreement — per-access
// hit/miss outcome, serving d-group, completion cycle, the emitted event
// stream, or any piece of final state (counters, snapshots, d-group
// occupancy, block residency, memory traffic, energy).
//
// A reported divergence is shrunk with a ddmin-style loop to a minimal
// access sequence that still reproduces it, and can be dumped as a JSONL
// artifact that EXPERIMENTS.md documents how to replay.
package difftest

import (
	"encoding/json"
	"fmt"
	"io"

	"nurapid/internal/cache"
	"nurapid/internal/cacti"
	"nurapid/internal/cmp"
	"nurapid/internal/mathx"
	"nurapid/internal/memsys"
	"nurapid/internal/nurapid"
	"nurapid/internal/obs"
	"nurapid/internal/refmodel"
	"nurapid/internal/stats"
)

// Access is one step of a differential workload. Gap is the idle time
// inserted after the previous access completes; the replay clock is
// now = prevDoneAt + Gap, so a sequence replays identically however it
// was produced or shrunk. Core is the issuing core id, used only by the
// shared (multi-core) comparison; single-core diffs leave it 0.
type Access struct {
	Addr  uint64 `json:"addr"`
	Write bool   `json:"write"`
	Gap   int64  `json:"gap"`
	Core  int    `json:"core,omitempty"`
}

// ShareAcross stamps a deterministic core id on every access, spreading
// seq across cores requestors — the input shape DiffShared expects. The
// original slice is not modified.
func ShareAcross(seq []Access, cores int, seed uint64) []Access {
	rng := mathx.NewRNG(seed)
	out := append([]Access(nil), seq...)
	for i := range out {
		out[i].Core = rng.Intn(cores)
	}
	return out
}

// Options tunes a differential run. The zero value is the production
// comparison; a non-zero Fault is injected into the reference model to
// verify the harness catches (and shrinks) a known-wrong specification.
type Options struct {
	Fault refmodel.Fault
}

// Divergence describes the first observed disagreement between the two
// implementations.
type Divergence struct {
	// Index is the access at which the disagreement surfaced, or -1 for
	// final-state comparisons after the full sequence.
	Index int
	// Field names what disagreed ("hit", "done_at", "group", "event",
	// "counter:misses", "occupancy", ...).
	Field string
	// Fast and Ref render the disagreeing values.
	Fast, Ref string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("access %d: %s: fast=%s ref=%s", d.Index, d.Field, d.Fast, d.Ref)
}

// recorder captures an event stream for comparison.
type recorder struct {
	events []obs.Event
}

func (r *recorder) Emit(e obs.Event) { r.events = append(r.events, e) }

// Diff replays seq against a fresh fast implementation and a fresh
// reference model (each with its own memory) and returns the first
// divergence, or nil when the two agree on everything. A third fast
// instance replays the same sequence through the batched AccessMany
// path and is compared against the per-access path element by element,
// so the replay loop's clock threading is oracle-gated too. Last, a
// fresh pair replays it with overlapping arrivals (diffContended).
func Diff(cfg nurapid.Config, seq []Access, opt Options) *Divergence {
	m := cacti.Default()
	fastMem := memsys.NewMemory(cfg.BlockBytes)
	refMem := memsys.NewMemory(cfg.BlockBytes)
	fast := nurapid.MustNew(cfg, m, fastMem)
	ref := refmodel.MustNew(cfg, m, refMem)
	ref.InjectFault(opt.Fault)

	fastRec, refRec := &recorder{}, &recorder{}
	fast.SetProbe(fastRec)
	ref.SetProbe(refRec)

	now := int64(0)
	fastResults := make([]memsys.AccessResult, len(seq))
	for i, a := range seq {
		fr := fast.Access(memsys.Req{Now: now, Addr: a.Addr, Write: a.Write})
		rr := ref.Access(memsys.Req{Now: now, Addr: a.Addr, Write: a.Write})
		fastResults[i] = fr
		if fr.Hit != rr.Hit {
			return &Divergence{Index: i, Field: "hit",
				Fast: fmt.Sprint(fr.Hit), Ref: fmt.Sprint(rr.Hit)}
		}
		if fr.Group != rr.Group {
			return &Divergence{Index: i, Field: "group",
				Fast: fmt.Sprint(fr.Group), Ref: fmt.Sprint(rr.Group)}
		}
		if fr.DoneAt != rr.DoneAt {
			return &Divergence{Index: i, Field: "done_at",
				Fast: fmt.Sprint(fr.DoneAt), Ref: fmt.Sprint(rr.DoneAt)}
		}
		// The clock advances off the (agreed) completion time so port
		// pressure and idle gaps both occur.
		now = fr.DoneAt + a.Gap
	}

	// Event streams: same events, each in the canonical order.
	if d := diffEvents("", fastRec.events, refRec.events); d != nil {
		return d
	}

	if d := diffBatched(cfg, m, seq, fast, fastMem, fastRec, fastResults, now); d != nil {
		return d
	}
	if d := diffFinalState(fast, ref, fastMem, refMem, seq); d != nil {
		return d
	}
	return diffContended(cfg, m, seq, opt)
}

// diffContended replays seq on a fresh fast instance and a fresh
// reference model with each access arriving Gap cycles after the
// previous one arrived, not after it completed. The completion-paced
// replay above leaves the single port idle by the time the next access
// arrives; here accesses queue behind each other's issue intervals and
// demotion chains, so the results and the port stamps on hit and miss
// events are compared under real port contention.
func diffContended(cfg nurapid.Config, m *cacti.Model, seq []Access, opt Options) *Divergence {
	fast := nurapid.MustNew(cfg, m, memsys.NewMemory(cfg.BlockBytes))
	ref := refmodel.MustNew(cfg, m, memsys.NewMemory(cfg.BlockBytes))
	ref.InjectFault(opt.Fault)
	fastRec, refRec := &recorder{}, &recorder{}
	fast.SetProbe(fastRec)
	ref.SetProbe(refRec)
	now := int64(0)
	for i, a := range seq {
		now += a.Gap
		req := memsys.Req{Now: now, Addr: a.Addr, Write: a.Write}
		if fr, rr := fast.Access(req), ref.Access(req); fr != rr {
			return &Divergence{Index: i, Field: "contended:result",
				Fast: fmt.Sprintf("%+v", fr), Ref: fmt.Sprintf("%+v", rr)}
		}
	}
	return diffEvents("contended:", fastRec.events, refRec.events)
}

// DiffShared replays seq through the 2-core shared front end: both the
// fast implementation and the reference model sit behind an identical
// cmp bank-queue, and each access carries a core id (stamp them with
// ShareAcross). Queue arbitration, per-core attribution, Core-stamped
// event streams, and all final state are compared, so the multi-core
// glue is oracle-gated exactly like the single-core path.
func DiffShared(cfg nurapid.Config, seq []Access, opt Options) *Divergence {
	const cores = 2
	m := cacti.Default()
	fastMem := memsys.NewMemory(cfg.BlockBytes)
	refMem := memsys.NewMemory(cfg.BlockBytes)
	fast := nurapid.MustNew(cfg, m, fastMem)
	ref := refmodel.MustNew(cfg, m, refMem)
	ref.InjectFault(opt.Fault)

	qcfg := cmp.QueueConfig{Banks: 4, BlockBytes: cfg.BlockBytes, Occupancy: 4, Cores: cores}
	fq, err := cmp.NewQueue(fast, qcfg)
	if err != nil {
		panic(fmt.Sprintf("difftest: queue construction failed: %v", err))
	}
	rq, err := cmp.NewQueue(ref, qcfg)
	if err != nil {
		panic(fmt.Sprintf("difftest: queue construction failed: %v", err))
	}

	// Probes attach through the queues, not the wrapped models, so the
	// compared streams carry the queue-side events (Enqueue/Issue) as
	// well as the organizations': bank hashing or arbitration drift
	// between the two sides surfaces as an event divergence.
	fastRec, refRec := &recorder{}, &recorder{}
	fq.SetProbe(fastRec)
	rq.SetProbe(refRec)

	now := int64(0)
	for i, a := range seq {
		req := memsys.Req{Now: now, Addr: a.Addr, Write: a.Write, Core: a.Core}
		fr := fq.Access(req)
		rr := rq.Access(req)
		if fr.Hit != rr.Hit {
			return &Divergence{Index: i, Field: "shared:hit",
				Fast: fmt.Sprint(fr.Hit), Ref: fmt.Sprint(rr.Hit)}
		}
		if fr.Group != rr.Group {
			return &Divergence{Index: i, Field: "shared:group",
				Fast: fmt.Sprint(fr.Group), Ref: fmt.Sprint(rr.Group)}
		}
		if fr.DoneAt != rr.DoneAt {
			return &Divergence{Index: i, Field: "shared:done_at",
				Fast: fmt.Sprint(fr.DoneAt), Ref: fmt.Sprint(rr.DoneAt)}
		}
		now = fr.DoneAt + a.Gap
	}

	// Core-stamped event streams must match exactly, each in the
	// extended (queue-side) canonical order.
	if d := diffEvents("shared:", fastRec.events, refRec.events); d != nil {
		return d
	}

	// Wiring guard: a probe attached below the queue would silently drop
	// the queue-side events from both streams and weaken the oracle
	// without any visible disagreement, so their absence is itself a
	// divergence.
	if len(seq) > 0 {
		hasQueue := false
		for _, e := range fastRec.events {
			if e.Kind == obs.KindEnqueue {
				hasQueue = true
				break
			}
		}
		if !hasQueue {
			return &Divergence{Index: -1, Field: "shared:probe wiring",
				Fast: "stream carries no queue-side events", Ref: "expected Enqueue/Issue per access"}
		}
	}

	// Queue-side accounting: per-core attribution and contention
	// counters must agree (the queues are identical glue, so any drift
	// means the wrapped models disagreed on timing).
	fpc, rpc := fq.PerCore(), rq.PerCore()
	for c := range fpc {
		if fpc[c] != rpc[c] {
			return &Divergence{Index: -1, Field: fmt.Sprintf("shared:per_core %d", c),
				Fast: fmt.Sprintf("%+v", fpc[c]), Ref: fmt.Sprintf("%+v", rpc[c])}
		}
	}
	if d := diffKVs("shared:queue", fq.Snapshot(), rq.Snapshot()); d != nil {
		return d
	}

	return diffFinalState(fast, ref, fastMem, refMem, seq)
}

// diffBatched replays seq on a fresh instance through memsys.AccessMany
// and compares it against the per-access fast run: per-request results,
// the final replay clock, the emitted event stream, and all final state.
// Any drift the replay loop introduces (ordering, port
// serialization, counter accounting) surfaces as a "batch:" divergence.
func diffBatched(cfg nurapid.Config, m *cacti.Model, seq []Access,
	fast *nurapid.Cache, fastMem *memsys.Memory, fastRec *recorder,
	fastResults []memsys.AccessResult, fastEnd int64) *Divergence {
	batchMem := memsys.NewMemory(cfg.BlockBytes)
	batch := nurapid.MustNew(cfg, m, batchMem)
	batchRec := &recorder{}
	batch.SetProbe(batchRec)

	reqs := make([]memsys.Req, len(seq))
	for i, a := range seq {
		reqs[i] = memsys.Req{Addr: a.Addr, Write: a.Write, Gap: a.Gap}
	}
	out := make([]memsys.AccessResult, len(seq))
	end := memsys.AccessMany(batch, 0, reqs, out)

	for i := range out {
		if out[i] != fastResults[i] {
			return &Divergence{Index: i, Field: "batch:result",
				Fast: fmt.Sprintf("%+v", fastResults[i]), Ref: fmt.Sprintf("%+v", out[i])}
		}
	}
	if end != fastEnd {
		return &Divergence{Index: -1, Field: "batch:end_clock",
			Fast: fmt.Sprint(fastEnd), Ref: fmt.Sprint(end)}
	}
	if d := diffEvents("batch:", fastRec.events, batchRec.events); d != nil {
		return d
	}
	if d := diffCounters(fast.Counters(), batch.Counters()); d != nil {
		d.Field = "batch:" + d.Field
		return d
	}
	if d := diffKVs("batch:snapshot", fast.Snapshot(), batch.Snapshot()); d != nil {
		return d
	}
	if fast.EnergyNJ() != batch.EnergyNJ() {
		return &Divergence{Index: -1, Field: "batch:energy_nj",
			Fast: fmt.Sprint(fast.EnergyNJ()), Ref: fmt.Sprint(batch.EnergyNJ())}
	}
	fo, bo := fast.GroupOccupancy(), batch.GroupOccupancy()
	for g := range fo {
		if fo[g] != bo[g] {
			return &Divergence{Index: -1, Field: fmt.Sprintf("batch:occupancy dgroup %d", g),
				Fast: fmt.Sprint(fo[g]), Ref: fmt.Sprint(bo[g])}
		}
	}
	if fastMem.Accesses != batchMem.Accesses || fastMem.Writes != batchMem.Writes {
		return &Divergence{Index: -1, Field: "batch:memory traffic",
			Fast: fmt.Sprintf("accesses=%d writes=%d", fastMem.Accesses, fastMem.Writes),
			Ref:  fmt.Sprintf("accesses=%d writes=%d", batchMem.Accesses, batchMem.Writes)}
	}
	return nil
}

// diffEvents compares two recorded event streams element by element,
// then holds them to the canonical order (obs.CheckOrder): two streams
// can agree with each other and still both break the contract. Once
// they are equal, one check covers both.
func diffEvents(prefix string, fast, ref []obs.Event) *Divergence {
	for i := 0; i < len(fast) || i < len(ref); i++ {
		var fe, re obs.Event
		feOK, reOK := i < len(fast), i < len(ref)
		if feOK {
			fe = fast[i]
		}
		if reOK {
			re = ref[i]
		}
		if !feOK || !reOK || fe != re {
			return &Divergence{Index: -1, Field: fmt.Sprintf("%sevent %d", prefix, i),
				Fast: renderEvent(fe, feOK), Ref: renderEvent(re, reOK)}
		}
	}
	if err := obs.CheckOrder(fast); err != nil {
		return &Divergence{Index: -1, Field: prefix + "event order",
			Fast: err.Error(), Ref: err.Error()}
	}
	return nil
}

func renderEvent(e obs.Event, ok bool) string {
	if !ok {
		return "<stream ended>"
	}
	return fmt.Sprintf("%+v", e)
}

// diffFinalState compares everything observable after the sequence:
// counters, snapshot key/values, energy, d-group occupancy, per-address
// residency, and the memory traffic each model generated.
func diffFinalState(fast *nurapid.Cache, ref *refmodel.Cache,
	fastMem, refMem *memsys.Memory, seq []Access) *Divergence {
	if d := diffCounters(fast.Counters(), ref.Counters()); d != nil {
		return d
	}
	if d := diffKVs("snapshot", fast.Snapshot(), ref.Snapshot()); d != nil {
		return d
	}
	if fast.EnergyNJ() != ref.EnergyNJ() {
		return &Divergence{Index: -1, Field: "energy_nj",
			Fast: fmt.Sprint(fast.EnergyNJ()), Ref: fmt.Sprint(ref.EnergyNJ())}
	}
	fo, ro := fast.GroupOccupancy(), ref.GroupOccupancy()
	for g := range fo {
		if fo[g] != ro[g] {
			return &Divergence{Index: -1, Field: fmt.Sprintf("occupancy dgroup %d", g),
				Fast: fmt.Sprint(fo[g]), Ref: fmt.Sprint(ro[g])}
		}
	}
	// Residency and placement of every address the workload touched.
	checked := make(map[uint64]bool)
	for _, a := range seq {
		if checked[a.Addr] {
			continue
		}
		checked[a.Addr] = true
		if fg, rg := fast.GroupOf(a.Addr), ref.GroupOf(a.Addr); fg != rg {
			return &Divergence{Index: -1, Field: fmt.Sprintf("group_of %#x", a.Addr),
				Fast: fmt.Sprint(fg), Ref: fmt.Sprint(rg)}
		}
	}
	if fastMem.Accesses != refMem.Accesses || fastMem.Writes != refMem.Writes {
		return &Divergence{Index: -1, Field: "memory traffic",
			Fast: fmt.Sprintf("accesses=%d writes=%d", fastMem.Accesses, fastMem.Writes),
			Ref:  fmt.Sprintf("accesses=%d writes=%d", refMem.Accesses, refMem.Writes)}
	}
	return nil
}

func diffCounters(fast, ref *stats.Counters) *Divergence {
	names := map[string]bool{}
	for _, n := range fast.Names() {
		names[n] = true
	}
	for _, n := range ref.Names() {
		names[n] = true
	}
	// Deterministic report order: reuse the sorted name lists.
	for _, n := range append(fast.Names(), ref.Names()...) {
		if !names[n] {
			continue
		}
		names[n] = false
		if fast.Get(n) != ref.Get(n) {
			return &Divergence{Index: -1, Field: "counter:" + n,
				Fast: fmt.Sprint(fast.Get(n)), Ref: fmt.Sprint(ref.Get(n))}
		}
	}
	return nil
}

func diffKVs(what string, fast, ref []stats.KV) *Divergence {
	n := len(fast)
	if len(ref) > n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		var f, r stats.KV
		if i < len(fast) {
			f = fast[i]
		}
		if i < len(ref) {
			r = ref[i]
		}
		if f != r {
			return &Divergence{Index: -1, Field: fmt.Sprintf("%s[%d]", what, i),
				Fast: fmt.Sprintf("%s=%v", f.Name, f.Value),
				Ref:  fmt.Sprintf("%s=%v", r.Name, r.Value)}
		}
	}
	return nil
}

// Shrink reduces seq to a (locally) minimal access sequence that still
// diverges under cfg/opt, using a ddmin-style pass: repeatedly try to
// delete chunks of halving size, keeping any deletion that preserves the
// divergence. It returns nil when seq does not diverge at all.
func Shrink(cfg nurapid.Config, seq []Access, opt Options) []Access {
	diverges := func(s []Access) bool { return Diff(cfg, s, opt) != nil }
	if !diverges(seq) {
		return nil
	}
	cur := append([]Access(nil), seq...)
	for chunk := len(cur) / 2; chunk >= 1; {
		removedAny := false
		for start := 0; start+chunk <= len(cur); {
			cand := append(append([]Access(nil), cur[:start]...), cur[start+chunk:]...)
			if diverges(cand) {
				cur = cand
				removedAny = true
			} else {
				start += chunk
			}
		}
		if chunk == 1 && !removedAny {
			break
		}
		if chunk > 1 {
			chunk /= 2
		} else if !removedAny {
			break
		}
	}
	return cur
}

// artifactHeader is the first JSONL line of a divergence artifact.
type artifactHeader struct {
	Cell     string         `json:"cell"`
	Workload string         `json:"workload"`
	Config   nurapid.Config `json:"config"`
	Field    string         `json:"field"`
	Index    int            `json:"index"`
	Fast     string         `json:"fast"`
	Ref      string         `json:"ref"`
	Accesses int            `json:"accesses"`
	Fault    refmodel.Fault `json:"fault,omitempty"`
}

// WriteArtifact dumps a shrunk divergence as JSONL: one header line with
// the cell, config, and disagreement, then one line per access. The
// format is the replay input EXPERIMENTS.md's divergence walkthrough
// consumes.
func WriteArtifact(w io.Writer, cell, workload string, cfg nurapid.Config,
	opt Options, d *Divergence, seq []Access) error {
	enc := json.NewEncoder(w)
	hdr := artifactHeader{
		Cell: cell, Workload: workload, Config: cfg,
		Field: d.Field, Index: d.Index, Fast: d.Fast, Ref: d.Ref,
		Accesses: len(seq), Fault: opt.Fault,
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, a := range seq {
		if err := enc.Encode(a); err != nil {
			return err
		}
	}
	return nil
}

// ReadArtifact parses a JSONL artifact back into its access sequence (the
// header line is skipped), for replaying a dumped divergence in a test or
// debugger session.
func ReadArtifact(r io.Reader) (cfg nurapid.Config, seq []Access, err error) {
	dec := json.NewDecoder(r)
	var hdr artifactHeader
	if err := dec.Decode(&hdr); err != nil {
		return nurapid.Config{}, nil, fmt.Errorf("difftest: reading artifact header: %w", err)
	}
	for {
		var a Access
		if err := dec.Decode(&a); err == io.EOF {
			break
		} else if err != nil {
			return nurapid.Config{}, nil, fmt.Errorf("difftest: reading artifact access: %w", err)
		}
		seq = append(seq, a)
	}
	return hdr.Config, seq, nil
}

// Cell is one point of the policy matrix.
type Cell struct {
	Name string
	Cfg  nurapid.Config
}

// Matrix enumerates the full policy matrix the fuzzer covers: two
// geometries (2 and 4 d-groups), the three placement variants
// (unrestricted distance-associative, pointer-restricted, and the
// set-associative comparison), all four promotion policies (including
// the predictor-driven bypass), all three distance-replacement policies
// (including dead-on-arrival placement), and two promotion triggers,
// plus a memoized variant of a representative cell per geometry and
// placement. Geometries use large blocks so the whole cache is a few
// hundred frames and a few thousand accesses already thrash every
// structure.
func Matrix() []Cell {
	type geom struct {
		name     string
		capacity int64
		nGroups  int
	}
	geoms := []geom{
		{"2g", 2 << 20, 2},
		{"4g", 4 << 20, 4},
	}
	type placeVariant struct {
		name      string
		placement nurapid.Placement
		restrict  int
	}
	places := []placeVariant{
		{"da", nurapid.DistanceAssociative, 0},
		{"r16", nurapid.DistanceAssociative, 16},
		{"sa", nurapid.SetAssociative, 0},
	}
	promos := []nurapid.Promotion{
		nurapid.DemotionOnly, nurapid.NextFastest, nurapid.Fastest, nurapid.PredictiveBypass,
	}
	dists := []nurapid.DistancePolicy{
		nurapid.RandomDistance, nurapid.LRUDistance, nurapid.DeadOnArrival,
	}

	var cells []Cell
	for _, g := range geoms {
		for _, pl := range places {
			for _, pr := range promos {
				triggers := []int{0, 3}
				if pr == nurapid.DemotionOnly {
					triggers = []int{0} // no promotion, trigger is moot
				}
				for _, di := range dists {
					for _, ph := range triggers {
						cfg := nurapid.Config{
							CapacityBytes:  g.capacity,
							BlockBytes:     8192,
							Assoc:          8,
							NumDGroups:     g.nGroups,
							Promotion:      pr,
							Distance:       di,
							Placement:      pl.placement,
							RestrictFrames: pl.restrict,
							PromoteHits:    ph,
							Seed:           7,
						}
						cells = append(cells, Cell{
							Name: fmt.Sprintf("%s-%s-%s-%s-ph%d", g.name, pl.name, pr, di, ph),
							Cfg:  cfg,
						})
					}
				}
			}
			// Memoized variants: forward-pointer memoization is energy-only
			// accounting, so one plain cell and one all-predictor cell per
			// geometry and placement cover its interaction with every
			// policy family without doubling the matrix.
			memoized := []struct {
				promo nurapid.Promotion
				dist  nurapid.DistancePolicy
				ph    int
			}{
				{nurapid.NextFastest, nurapid.RandomDistance, 0},
				{nurapid.PredictiveBypass, nurapid.DeadOnArrival, 3},
			}
			for _, mv := range memoized {
				cfg := nurapid.Config{
					CapacityBytes:  g.capacity,
					BlockBytes:     8192,
					Assoc:          8,
					NumDGroups:     g.nGroups,
					Promotion:      mv.promo,
					Distance:       mv.dist,
					Placement:      pl.placement,
					RestrictFrames: pl.restrict,
					PromoteHits:    mv.ph,
					Memoize:        true,
					Seed:           7,
				}
				cells = append(cells, Cell{
					Name: fmt.Sprintf("%s-%s-%s-%s-ph%d-memo", g.name, pl.name, mv.promo, mv.dist, mv.ph),
					Cfg:  cfg,
				})
			}
		}
	}
	return cells
}

// Workload is a named deterministic access-sequence generator.
type Workload struct {
	Name string
	Gen  func(cfg nurapid.Config, seed uint64, n int) []Access
}

// Workloads returns the adversarial workload set. Each generator derives
// everything from its seed and the cache geometry, so a (cell, workload,
// seed, n) tuple is fully reproducible.
func Workloads() []Workload {
	return []Workload{
		// tight-sets confines traffic to a handful of sets with more live
		// tags than ways: constant evictions, and every fill lands in a
		// crowded partition, forcing demotion ripples.
		{"tight-sets", func(cfg nurapid.Config, seed uint64, n int) []Access {
			geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
			rng := mathx.NewRNG(seed)
			seq := make([]Access, n)
			for i := range seq {
				set := rng.Intn(4)
				tag := rng.Intn(3 * cfg.Assoc)
				seq[i] = Access{
					Addr:  uint64(tag*geo.NumSets()+set) * uint64(cfg.BlockBytes),
					Write: rng.Bool(0.3),
					Gap:   int64(rng.Intn(8)),
				}
			}
			return seq
		}},
		// promote-churn hammers a small hot set (driving promotion
		// triggers) while a cold stream of conflicting misses keeps
		// demoting the hot blocks back out — the promote/demote/evict
		// interleaving the pointer machinery finds hardest.
		{"promote-churn", func(cfg nurapid.Config, seed uint64, n int) []Access {
			geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
			rng := mathx.NewRNG(seed)
			hot := make([]uint64, 6)
			for i := range hot {
				hot[i] = uint64(i*geo.NumSets()) * uint64(cfg.BlockBytes) // all in set 0
			}
			seq := make([]Access, n)
			for i := range seq {
				if rng.Bool(0.7) {
					seq[i] = Access{Addr: hot[rng.Intn(len(hot))], Write: rng.Bool(0.1)}
				} else {
					set := rng.Intn(2)
					tag := 8 + rng.Intn(4*cfg.Assoc)
					seq[i] = Access{
						Addr:  uint64(tag*geo.NumSets()+set) * uint64(cfg.BlockBytes),
						Write: rng.Bool(0.2),
					}
				}
				seq[i].Gap = int64(rng.Intn(4))
			}
			return seq
		}},
		// stream-scan interleaves a wrap-around sequential sweep over a
		// 2x-cache footprint (blocks that are dead on arrival: each is
		// touched once per lap) with a small hot set that is re-referenced
		// constantly — the separation the reuse-distance predictor exists
		// to learn, so the predictive policies actually fire under it.
		{"stream-scan", func(cfg nurapid.Config, seed uint64, n int) []Access {
			geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
			rng := mathx.NewRNG(seed)
			nBlocks := int(cfg.CapacityBytes / int64(cfg.BlockBytes))
			hot := make([]uint64, 8)
			for i := range hot {
				hot[i] = uint64(i*geo.NumSets()) * uint64(cfg.BlockBytes) // all in (sampled) set 0
			}
			pos := 0
			seq := make([]Access, n)
			for i := range seq {
				if rng.Bool(0.3) {
					seq[i] = Access{Addr: hot[rng.Intn(len(hot))], Write: rng.Bool(0.1)}
				} else {
					blk := nBlocks + pos%(2*nBlocks) // disjoint from the hot blocks
					pos++
					seq[i] = Access{Addr: uint64(blk) * uint64(cfg.BlockBytes), Write: rng.Bool(0.1)}
				}
				seq[i].Gap = int64(rng.Intn(4))
			}
			return seq
		}},
		// writeback-storm is write-heavy with moderate conflict, so dirty
		// victims and their writeback energy/traffic accounting dominate.
		{"writeback-storm", func(cfg nurapid.Config, seed uint64, n int) []Access {
			geo := cache.Geometry{CapacityBytes: cfg.CapacityBytes, BlockBytes: cfg.BlockBytes, Assoc: cfg.Assoc}
			rng := mathx.NewRNG(seed)
			seq := make([]Access, n)
			for i := range seq {
				set := rng.Intn(8)
				tag := rng.Intn(2 * cfg.Assoc)
				seq[i] = Access{
					Addr:  uint64(tag*geo.NumSets()+set) * uint64(cfg.BlockBytes),
					Write: rng.Bool(0.8),
					Gap:   int64(rng.Intn(16)),
				}
			}
			return seq
		}},
	}
}

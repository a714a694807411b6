package obs

import "nurapid/internal/stats"

// DefaultEpochAccesses is the Sampler's default epoch length: one
// occupancy sample per 4096 cache accesses keeps a 2M-instruction run's
// timeline under ~100 samples.
const DefaultEpochAccesses = 4096

// Sampler reconstructs per-d-group occupancy from movement events and
// records an epoch-based timeline: every epoch accesses it snapshots
// how many frames each d-group holds. The reconstruction needs no
// cache-side bookkeeping — placement, promotion, and eviction events
// carry enough information:
//
//   - KindPlace installs a block into a free frame of Group (+1);
//   - KindEvict frees a frame of Group (-1);
//   - KindPromote removes the block from From (-1) before the ensuing
//     chain re-places it;
//   - KindDemote is occupancy-neutral: the incoming block replaces the
//     victim in place, and the victim's landing is the chain's next
//     KindDemote or final KindPlace.
type Sampler struct {
	name    string
	epoch   int64
	inEpoch int64
	occ     []int64
	samples [][]int64
}

// NewSampler builds an occupancy sampler named name (metric-name
// convention: lower_snake_case, enforced by the statsreg analyzer)
// taking one sample per epochAccesses accesses;
// epochAccesses <= 0 selects DefaultEpochAccesses.
func NewSampler(name string, epochAccesses int64) *Sampler {
	if epochAccesses <= 0 {
		epochAccesses = DefaultEpochAccesses
	}
	return &Sampler{name: name, epoch: epochAccesses}
}

func (s *Sampler) grow(g int) {
	for len(s.occ) <= g {
		s.occ = append(s.occ, 0)
	}
}

// Emit implements Probe.
func (s *Sampler) Emit(e Event) {
	switch e.Kind {
	case KindAccess:
		s.inEpoch++
		if s.inEpoch >= s.epoch {
			s.inEpoch = 0
			s.samples = append(s.samples, s.Occupancy())
		}
	case KindPlace:
		s.grow(int(e.Group))
		s.occ[e.Group]++
	case KindEvict:
		s.grow(int(e.Group))
		s.occ[e.Group]--
	case KindPromote:
		s.grow(int(e.From))
		s.occ[e.From]--
	}
}

// Name returns the sampler's metric name.
func (s *Sampler) Name() string { return s.name }

// EpochAccesses returns the epoch length in accesses.
func (s *Sampler) EpochAccesses() int64 { return s.epoch }

// NumGroups returns the number of d-groups seen so far.
func (s *Sampler) NumGroups() int { return len(s.occ) }

// NumSamples returns the number of epoch samples recorded.
func (s *Sampler) NumSamples() int { return len(s.samples) }

// Sample returns epoch i's per-group occupancy. Early samples may be
// shorter than NumGroups when higher groups had not yet been touched.
func (s *Sampler) Sample(i int) []int64 { return s.samples[i] }

// Occupancy returns the current per-group occupancy.
func (s *Sampler) Occupancy() []int64 {
	out := make([]int64, len(s.occ))
	copy(out, s.occ)
	return out
}

// Snapshot emits the epoch geometry, sample count, and current
// occupancy per group (statsreg convention: every counter field must
// appear here). inEpoch is the partially filled current epoch.
func (s *Sampler) Snapshot() []stats.KV {
	out := make([]stats.KV, 0, 3+len(s.occ))
	out = append(out,
		stats.KV{Name: stats.Name(s.name, "_epoch_accesses"), Value: float64(s.epoch)},
		stats.KV{Name: stats.Name(s.name, "_epoch_fill"), Value: float64(s.inEpoch)},
		stats.KV{Name: stats.Name(s.name, "_samples"), Value: float64(len(s.samples))},
	)
	for g, n := range s.occ {
		out = append(out, stats.KV{
			Name:  stats.Name(s.name, "_dgroup_", stats.Itoa(g)),
			Value: float64(n),
		})
	}
	return out
}

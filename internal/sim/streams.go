package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"nurapid/internal/cmp"
	"nurapid/internal/workload"
)

// streamKey names one organization-independent stream: an app's
// instruction stream at a seed, cut at n (instructions for the Runner's
// front-end streams and CMP fronts, requests for ReplayAll's traces).
// The whole App value is part of the key, not just its name, so two app
// models that share a name never share a stream. CMP fronts also depend
// on the core count and sharing pattern; cores is zero for the other
// streams.
type streamKey struct {
	app     workload.App
	seed    uint64
	n       int64
	cores   int
	sharing cmp.Sharing
}

func (k streamKey) String() string {
	s := k.app.Name + "/seed=" + strconv.FormatUint(k.seed, 10) + "/n=" + strconv.FormatInt(k.n, 10)
	if k.cores > 0 {
		s += "/cmp" + strconv.Itoa(k.cores) + "-" + k.sharing.String()
	}
	return s
}

// shared is one produced stream and the count of its holders.
type shared[T any] struct {
	key      streamKey
	ready    chan struct{} // closed once val (or panicked) is set
	val      T
	panicked any
	refs     int  // holders; guarded by producers.mu
	claimed  bool // a fill has started; guarded by producers.mu
	done     bool // fill has finished; guarded by producers.mu
}

// wait blocks until the stream is produced and returns it, re-raising
// its producer's panic.
func (e *shared[T]) wait() T {
	<-e.ready
	if e.panicked != nil {
		panic(fmt.Sprintf("sim: producing stream %s panicked: %v", e.key, e.panicked))
	}
	return e.val
}

// producers shares each stream among the jobs that consume it: the
// producer cache behind the Runner's front ends (streams and CMP fronts
// alike) and ReplayAll's traces. A stream is produced once per key and
// lives while it has holders; the last release recycles its value into
// a short free list the next producer reuses, so a campaign's streams
// stop allocating once the buffers have grown.
//
// Every stream is planned, and schedule is the one planner: it
// registers a stream and its consumer count before any task runs, and
// hands runPool a group per stream: a producer (ensure) for its lane
// and the consumers, each handed the stream and releasing it when
// done. ensure fills the stream unless another producer has started
// to, and then waits for that fill, which waits on nothing; so a
// stream planned by two concurrent schedules (two prefetches, or two
// standalone runs of one app) is produced once, by whichever lane
// reaches it first.
type producers[T any] struct {
	mu       sync.Mutex
	live     map[streamKey]*shared[T]
	free     []T
	filled   int // streams holding a value now
	peak     int // most streams ever holding a value at once (a test hook)
	produced int // streams ever produced (a test hook)
}

// plan registers consumers more holders of key's stream, creating it if
// none is live.
func (p *producers[T]) plan(key streamKey, consumers int) *shared[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.live[key]; ok {
		e.refs += consumers
		return e
	}
	if p.live == nil {
		p.live = make(map[streamKey]*shared[T])
	}
	e := &shared[T]{key: key, ready: make(chan struct{}), refs: consumers}
	p.live[key] = e
	return e
}

// ensure produces e's stream unless a producer has claimed it already,
// and otherwise waits for that one to publish it. It produces the value
// from a recycled one (the zero T when the free list is empty), under
// pprof labels {app, phase}, and publishes it. It never re-raises: a
// producer panic is latched on e, and every consumer re-raises it from
// wait instead of blocking forever.
func (p *producers[T]) ensure(e *shared[T], phase string, produce func(reuse T) T) {
	p.mu.Lock()
	if e.claimed {
		p.mu.Unlock()
		<-e.ready
		return
	}
	e.claimed = true
	var reuse T
	if n := len(p.free); n > 0 {
		var zero T
		reuse, p.free[n-1] = p.free[n-1], zero
		p.free = p.free[:n-1]
	}
	p.filled++
	p.peak = max(p.peak, p.filled)
	p.produced++
	p.mu.Unlock()

	defer func() {
		r := recover()
		p.mu.Lock()
		e.panicked = r
		e.done = true
		close(e.ready)
		if e.refs == 0 { // every holder left before the value was ready
			p.retireLocked(e)
		}
		p.mu.Unlock()
	}()
	pprof.Do(context.Background(), pprof.Labels("app", e.key.app.Name, "phase", phase), func(context.Context) {
		e.val = produce(reuse)
	})
}

// release drops one hold on e; the last one retires the stream.
func (p *producers[T]) release(e *shared[T]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	delete(p.live, e.key)
	if e.done {
		p.retireLocked(e)
	} // else ensure retires it once produced
}

// maxFree bounds the free list: a released stream is recycled by the
// next producer, so one or two spares cover a pool retiring one stream
// while producing the next; more would only hold memory.
const maxFree = 2

// retireLocked recycles a produced stream nobody holds.
func (p *producers[T]) retireLocked(e *shared[T]) {
	p.filled--
	if e.panicked == nil && len(p.free) < maxFree {
		p.free = append(p.free, e.val)
	}
	var zero T
	e.val = zero
}

// schedule appends the group of one stream's planned consumers to
// groups: a producer ensuring key's stream under pprof phase, then the
// consumers, each handed the stream's entry (wait returns its value)
// and releasing it when done.
func schedule[T any](groups []group, p *producers[T], key streamKey, phase string, produce func(reuse T) T, consumers []func(*shared[T])) []group {
	e := p.plan(key, len(consumers))
	g := group{produce: func() { p.ensure(e, phase, produce) }}
	for _, consume := range consumers {
		g.consume = append(g.consume, func() {
			defer p.release(e)
			consume(e)
		})
	}
	return append(groups, g)
}

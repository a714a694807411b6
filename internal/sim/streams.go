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
// Planned streams are the schedule: plan registers a stream and its
// consumer count before any task runs, and the caller hands runPool a
// group per stream: a producer (ensure) for its lane and the consumers,
// each of which releases the stream when done. ensure fills the stream
// unless another producer has started to, and then waits for that fill,
// which waits on nothing; so a stream planned by two concurrent
// prefetches is produced once, by whichever lane reaches it first. get
// hands a consumer its stream: the planned one when live, or else one
// produced inline for that caller.
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
	return p.addLocked(key, consumers)
}

// ensure produces e's stream unless a producer has claimed it already,
// and then waits for that one to publish it. It never re-raises: a
// producer panic is latched on e for its consumers.
func (p *producers[T]) ensure(ctx context.Context, e *shared[T], phase string, produce func(reuse T) T) {
	p.mu.Lock()
	claim := !e.claimed
	e.claimed = true
	p.mu.Unlock()
	if claim {
		p.fill(ctx, e, phase, produce)
	} else {
		<-e.ready
	}
}

// get returns key's stream, produced, with one hold the caller must
// release. A live stream (planned, or being produced for another
// caller) is shared; otherwise the stream is produced on the calling
// goroutine for this caller, and retired on the last release. If
// producing it panicked, get drops the caller's hold and re-raises.
func (p *producers[T]) get(ctx context.Context, key streamKey, phase string, produce func(reuse T) T) *shared[T] {
	p.mu.Lock()
	e, ok := p.live[key]
	if ok {
		e.refs++
	} else {
		e = p.addLocked(key, 1)
		e.claimed = true
	}
	p.mu.Unlock()
	if !ok {
		p.fill(ctx, e, phase, produce)
	}
	if <-e.ready; e.panicked != nil {
		p.release(e)
	}
	e.wait() // returns at once, or re-raises the producer's panic
	return e
}

func (p *producers[T]) addLocked(key streamKey, refs int) *shared[T] {
	if p.live == nil {
		p.live = make(map[streamKey]*shared[T])
	}
	e := &shared[T]{key: key, ready: make(chan struct{}), refs: refs}
	p.live[key] = e
	return e
}

// fill produces e's value from a recycled one (the zero T when the free
// list is empty), under pprof labels {app, phase} added to ctx's, and
// publishes it. A producer panic is latched on e rather than raised:
// every consumer re-raises it from wait instead of blocking forever.
func (p *producers[T]) fill(ctx context.Context, e *shared[T], phase string, produce func(reuse T) T) {
	p.mu.Lock()
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
	pprof.Do(ctx, pprof.Labels("app", e.key.app.Name, "phase", phase), func(context.Context) {
		e.val = produce(reuse)
	})
}

// release drops one hold on e; the last one retires the stream.
func (p *producers[T]) release(e *shared[T]) {
	p.mu.Lock()
	p.releaseLocked(e)
	p.mu.Unlock()
}

func (p *producers[T]) releaseLocked(e *shared[T]) {
	if e.refs--; e.refs > 0 {
		return
	}
	delete(p.live, e.key)
	if e.done {
		p.retireLocked(e)
	} // else fill retires it once produced
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

// schedule appends the group of one app's planned runs to groups: a
// producer ensuring key's stream, then the runs, each releasing the
// stream when done.
func schedule[T any](groups []group, p *producers[T], key streamKey, produce func(reuse T) T, runs []func()) []group {
	e := p.plan(key, len(runs))
	g := group{produce: func() { p.ensure(context.Background(), e, "front-end", produce) }}
	for _, run := range runs {
		g.consume = append(g.consume, func() {
			defer p.release(e)
			run()
		})
	}
	return append(groups, g)
}

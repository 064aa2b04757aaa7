package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"log"
	"runtime/debug"
	"slices"
	"sync"

	"crystalnet/internal/core"
	"crystalnet/internal/obs"
	"crystalnet/internal/scenario"
)

// Pool keeps converged, checkpointed base fabrics warm so rehearsal
// requests fork instead of re-converging. Entries are keyed by everything
// that shapes a convergence — topology, image pins, emulation boundary,
// invariants and the resolved seed — and deliberately NOT by the spec's
// name, description or steps, which only affect the forked portion of a
// run. Two requests rehearsing different step sequences against the same
// fabric therefore share one baseline.
//
// Concurrency model: one mutex guards the entry table; convergences run
// outside it in per-entry warm goroutines. Concurrent requests for the
// same cold key coalesce onto a single convergence (singleflight via the
// entry's ready channel). Borrowers are refcounted; an entry evicted by
// LRU pressure or explicit invalidation has its snapshot invalidated as
// soon as the last borrower releases, so stale handles fail loudly in
// core.Fork instead of silently reviving retired state.
type Pool struct {
	size      int
	maxEvents uint64
	rewarm    bool
	live      *obs.Registry // the one bookkeeper of hits, misses, evictions
	// converge is scenario.Converge; tests swap it to fail a warm on demand.
	converge func(*scenario.Spec, scenario.Options) (*scenario.Converged, error)

	mu      sync.Mutex
	entries map[string]*poolEntry
	clock   uint64 // logical LRU clock; bumped on every acquire
	closed  bool

	stop chan struct{}  // closed by Close; cancels in-flight warms
	wg   sync.WaitGroup // tracks warm goroutines
}

// poolEntry is one warm (or warming) baseline.
type poolEntry struct {
	key  string
	base *scenario.Spec // cleaned spec the baseline converges from

	ready chan struct{} // closed when cv/err are set
	cv    *scenario.Converged
	err   error

	refs    int
	lastUse uint64
	evicted bool
}

// NewPool returns a pool holding up to size warm baselines. maxEvents
// caps each convergence drive (0 = scenario default); rewarm re-converges
// invalidated entries in the background; live receives the pool.hits /
// pool.misses / pool.evictions / pool.entries metrics Status reads back
// (nil gets the pool a private registry).
func NewPool(size int, maxEvents uint64, rewarm bool, live *obs.Registry) *Pool {
	if size <= 0 {
		size = 1
	}
	if live == nil {
		live = obs.NewRegistry(obs.WallBuckets)
	}
	return &Pool{
		size:      size,
		maxEvents: maxEvents,
		rewarm:    rewarm,
		live:      live,
		converge:  scenario.Converge,
		entries:   map[string]*poolEntry{},
		stop:      make(chan struct{}),
	}
}

// PoolKey canonicalizes the convergence-shaping part of a spec: name,
// description and steps are dropped (they only affect the forked run),
// the seed is resolved, and the rest marshals through encoding/json,
// which orders struct fields by declaration and map keys lexically — so
// equal fabrics produce equal keys.
func PoolKey(sp *scenario.Spec, opts scenario.Options) string {
	c := sp.Clone()
	c.Name = ""
	c.Description = ""
	c.Steps = nil
	c.Seed = scenario.EffectiveSeed(sp, opts)
	b, err := json.Marshal(c)
	if err != nil {
		// Specs arrive through scenario.Parse; plain data cannot fail.
		panic(fmt.Sprintf("serve: marshal pool key: %v", err))
	}
	return string(b)
}

// baseSpec derives the spec a pooled baseline converges from: the
// request's fabric with the steps replaced by a placeholder (Validate
// requires one; Converge never executes steps) and the seed pinned.
func baseSpec(sp *scenario.Spec, opts scenario.Options) *scenario.Spec {
	base := sp.Clone()
	base.Name = "warm-pool"
	base.Description = ""
	base.Steps = []scenario.Step{{Op: scenario.OpWaitConverge}}
	base.Seed = scenario.EffectiveSeed(sp, opts)
	return base
}

// fabricName is the human-readable face of a pool key for status output.
func fabricName(sp *scenario.Spec) string {
	if sp.Topology.Clos != nil {
		return sp.Topology.Clos.Name
	}
	return sp.Topology.DC
}

// Acquire returns a converged baseline for sp, converging one on a miss.
// Requests for a key being warmed coalesce onto that convergence. The
// returned release func must be called exactly once, after the borrower
// has finished forking (idempotent, so a deferred call is safe). hit
// reports whether the baseline already existed — coalesced waiters count
// as hits: they did not pay for a convergence of their own.
//
// cancel aborts the wait (not the shared convergence — other waiters may
// still want it); the returned error then wraps core.ErrCanceled.
func (p *Pool) Acquire(sp *scenario.Spec, opts scenario.Options, cancel <-chan struct{}) (cv *scenario.Converged, release func(), hit bool, err error) {
	key := PoolKey(sp, opts)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, false, fmt.Errorf("serve: pool is closed")
	}
	e, hit := p.entries[key]
	if hit {
		p.live.Counter("pool.hits", "").Inc()
	} else {
		p.live.Counter("pool.misses", "").Inc()
		e = p.insertLocked(key, baseSpec(sp, opts))
	}
	e.refs++
	p.clock++
	e.lastUse = p.clock
	p.mu.Unlock()

	select {
	case <-e.ready:
	case <-cancel:
		p.release(e)
		return nil, nil, hit, fmt.Errorf("serve: acquire: %w", core.ErrCanceled)
	}
	if e.err != nil {
		err := e.err
		p.release(e)
		return nil, nil, hit, err
	}
	var once sync.Once
	return e.cv, func() { once.Do(func() { p.release(e) }) }, hit, nil
}

// insertLocked registers a new entry for key and starts its convergence.
// Caller holds p.mu. The entry starts with zero refs (Acquire and rewarm
// both call this; Acquire adds its own ref).
func (p *Pool) insertLocked(key string, base *scenario.Spec) *poolEntry {
	e := &poolEntry{key: key, base: base, ready: make(chan struct{})}
	p.entries[key] = e
	p.clock++
	e.lastUse = p.clock
	for len(p.entries) > p.size {
		p.evictLRULocked(key)
	}
	p.live.Gauge("pool.entries", "").Set(float64(len(p.entries)))
	p.wg.Add(1)
	go p.warm(e)
	return e
}

// warm converges the entry's base spec and publishes the result. The
// convergence is canceled by pool Close (p.stop), never by an individual
// requester — coalesced waiters must survive one requester's disconnect.
// A failed convergence removes the entry so later requests retry.
func (p *Pool) warm(e *poolEntry) {
	defer p.wg.Done()
	cv, err := p.convergeContained(e.base)
	p.mu.Lock()
	e.cv, e.err = cv, err
	if err != nil && p.entries[e.key] == e {
		delete(p.entries, e.key)
		e.evicted = true
		p.live.Gauge("pool.entries", "").Set(float64(len(p.entries)))
	}
	maybeInvalidateLocked(e)
	p.mu.Unlock()
	close(e.ready)
}

// convergeContained converges base, turning a panic into that entry's
// error. warm runs on a bare goroutine, where an uncontained panic exits the
// process and takes every tenant's warm baseline with it; contained, a spec
// that slipped past validation costs its own waiters one failed request.
func (p *Pool) convergeContained(base *scenario.Spec) (cv *scenario.Converged, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.live.Counter("pool.warm_panics", "").Inc()
			cv, err = nil, fmt.Errorf("serve: warming %s panicked: %v", fabricName(base), r)
			log.Printf("%v\n%s", err, debug.Stack())
		}
	}()
	return p.converge(base, scenario.Options{MaxEvents: p.maxEvents, Cancel: p.stop})
}

// release drops one borrower ref; the last ref out of an evicted entry
// invalidates its snapshot.
func (p *Pool) release(e *poolEntry) {
	p.mu.Lock()
	e.refs--
	maybeInvalidateLocked(e)
	p.mu.Unlock()
}

// maybeInvalidateLocked retires an evicted entry's snapshot once nothing
// borrows it. Idempotent; caller holds p.mu.
func maybeInvalidateLocked(e *poolEntry) {
	if e.evicted && e.refs <= 0 && e.cv != nil {
		e.cv.Invalidate()
	}
}

// evictLRULocked removes the least-recently-used entry other than keep.
// Borrowers holding the evicted entry finish their forks; the snapshot
// invalidates when the last of them releases. Caller holds p.mu.
func (p *Pool) evictLRULocked(keep string) {
	var victim *poolEntry
	for key, e := range p.entries {
		if key == keep {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	delete(p.entries, victim.key)
	victim.evicted = true
	p.live.Counter("pool.evictions", "").Inc()
	maybeInvalidateLocked(victim)
}

// Invalidate retires warm baselines — all of them when sp is nil,
// otherwise the one matching sp's pool key — and, when the pool was built
// with rewarm, starts replacement convergences in the background. It
// returns the number of entries retired. Operators call this (via POST
// /v1/pool/invalidate) after changing what a fabric converges to, e.g.
// repinning a vendor image under the same version label.
func (p *Pool) Invalidate(sp *scenario.Spec, opts scenario.Options) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var victims []*poolEntry
	if sp == nil {
		for _, e := range p.entries {
			victims = append(victims, e)
		}
	} else if e, ok := p.entries[PoolKey(sp, opts)]; ok {
		victims = append(victims, e)
	}
	for _, e := range victims {
		delete(p.entries, e.key)
		e.evicted = true
		maybeInvalidateLocked(e)
	}
	if p.rewarm && !p.closed {
		for _, e := range victims {
			// Re-converge from a private clone: the retired entry may still
			// be mid-convergence on the same base.
			p.insertLocked(e.key, e.base.Clone())
		}
	}
	p.live.Gauge("pool.entries", "").Set(float64(len(p.entries)))
	return len(victims)
}

// Close retires every entry, cancels in-flight convergences and waits for
// the warm goroutines to exit. The pool refuses Acquire afterwards.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.stop)
	for key, e := range p.entries {
		delete(p.entries, key)
		e.evicted = true
		maybeInvalidateLocked(e)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Status reports the pool's configuration, counters and entries (most
// recently used first).
func (p *Pool) Status() PoolStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStatus{
		Capacity:  p.size,
		Rewarm:    p.rewarm,
		Hits:      p.live.Counter("pool.hits", "").Value(),
		Misses:    p.live.Counter("pool.misses", "").Value(),
		Evictions: p.live.Counter("pool.evictions", "").Value(),
	}
	order := make([]*poolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		order = append(order, e)
	}
	// Most recently used first; lastUse values are unique (monotonic
	// clock), so the order is deterministic.
	slices.SortFunc(order, func(a, b *poolEntry) int { return cmp.Compare(b.lastUse, a.lastUse) })
	for _, e := range order {
		state := "warming"
		select {
		case <-e.ready:
			state = "ready"
		default:
		}
		st.Entries = append(st.Entries, PoolEntryStatus{
			Fabric: fabricName(e.base),
			Seed:   e.base.Seed,
			State:  state,
			Refs:   e.refs,
		})
	}
	return st
}

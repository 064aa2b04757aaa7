package sim

import (
	"fmt"
	"time"

	"crystalnet/internal/parallel"
)

// ShardSet scales one emulation across cores without giving up determinism
// (DESIGN.md §10). The device population is partitioned into domains — one
// per VM, fixed by the topology, never by the worker count — and each domain
// owns a private Engine (its own queue, clock, sequence counter and RNG
// stream). A master engine keeps everything that is not a device: cloud
// provisioning, build orchestration, fault injection, recovery supervision.
//
// Execution is lockstep per virtual instant T:
//
//  1. clocks of all engines are synchronized to T,
//  2. the master drains its events at T serially,
//  3. every domain drains its events at T, domains running in parallel on up
//     to `workers` goroutines,
//  4. fold hooks run serially (shared counters accumulated per-domain during
//     the parallel phase are merged), and
//  5. cross-domain deliveries staged during the parallel phase are flushed
//     onto their target engines in (source domain, append order) — an order
//     independent of how goroutines were scheduled.
//
// Within a domain execution is single-threaded and (time, seq)-ordered;
// across domains every interaction happens at a barrier in a canonical
// order; and each domain's RNG stream depends only on the root seed and the
// domain index. The observable output of a sharded run is therefore
// byte-identical for any worker count, including workers=1. (It is *not*
// identical to the classic single-engine schedule: per-domain RNG streams
// draw differently than one shared stream, which is why sharding is opt-in
// per emulation rather than a drop-in replacement.)
type ShardSet struct {
	master  *Engine
	domains []*Engine
	workers int
	// outboxes[d] holds cross-engine deliveries staged by domain d during a
	// parallel drain. Each domain appends only to its own outbox, so the
	// parallel phase needs no locks.
	outboxes [][]stagedEvent
	// inParallel is true while domain goroutines are draining. It is written
	// by the lockstep loop around Pool.Do, whose dispatch (channel send) and
	// join (WaitGroup wait) edges give the necessary happens-before for the
	// domain readers.
	inParallel bool
	// folds run serially at every barrier, merging per-domain accumulators
	// into their shared homes (e.g. fabric frame counters).
	folds []func()
	// Check, when non-nil, is polled once per instant; a non-nil error
	// aborts Run with that error (the cancellation hook).
	Check func() error
}

type stagedEvent struct {
	at     Time
	target *Engine
	fn     func()
}

// goldenGamma spreads the root seed across domain RNG streams (the
// fixed-point golden ratio increment used by splittable PRNGs).
const goldenGamma = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64

// NewShardSet builds a shard set over master with `domains` per-domain
// engines. Domain engine d is seeded from f(rootSeed, d), so the ensemble's
// randomness is a pure function of the root seed and the (topology-fixed)
// domain partition — never of the worker count. workers <= 1 drains domains
// serially on the calling goroutine, which is the reference schedule the
// parallel runs must match byte-for-byte.
func NewShardSet(master *Engine, rootSeed int64, domains, workers int) *ShardSet {
	s := &ShardSet{
		master:   master,
		domains:  make([]*Engine, domains),
		workers:  workers,
		outboxes: make([][]stagedEvent, domains),
	}
	for d := range s.domains {
		s.domains[d] = NewEngine(rootSeed ^ goldenGamma*int64(d+1))
	}
	return s
}

// Domains returns the number of per-domain engines.
func (s *ShardSet) Domains() int { return len(s.domains) }

// Workers returns the configured parallelism of the domain phase.
func (s *ShardSet) Workers() int { return s.workers }

// Engine returns the engine owning domain d; d == -1 is the master.
func (s *ShardSet) Engine(d int) *Engine {
	if d < 0 {
		return s.master
	}
	return s.domains[d]
}

// InParallel reports whether a parallel domain drain is executing — the
// signal shared-counter owners use to switch from direct writes to their
// per-domain accumulation slots.
func (s *ShardSet) InParallel() bool { return s.inParallel }

// AddFold registers a barrier hook, run serially after every parallel phase.
func (s *ShardSet) AddFold(fn func()) { s.folds = append(s.folds, fn) }

// ScheduleAfter schedules fn to run d after the current instant on the
// engine owning dst. src must identify the executing domain (-1 when called
// from master-serial context). During a parallel drain, cross-domain targets
// are staged in the source domain's outbox and flushed at the barrier; every
// other combination schedules directly, which is safe because either the
// target engine belongs to the executing goroutine or no parallel phase is
// running. d must be positive for cross-domain sends so staged deliveries
// land strictly after the current instant.
func (s *ShardSet) ScheduleAfter(src, dst int, d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	at := s.Engine(src).now.Add(d)
	target := s.Engine(dst)
	if !s.inParallel || src == dst {
		target.At(at, fn)
		return
	}
	s.outboxes[src] = append(s.outboxes[src], stagedEvent{at: at, target: target, fn: fn})
}

// pendingTotals sums pending events (Lane items included) and daemon counts
// across all engines.
func (s *ShardSet) pendingTotals() (total, daemons int) {
	total, daemons = s.master.Pending(), s.master.daemons
	for _, e := range s.domains {
		total += e.Pending()
		daemons += e.daemons
	}
	return total, daemons
}

// nextInstant returns the earliest pending event time across all engines.
func (s *ShardSet) nextInstant() (Time, bool) {
	var t Time
	found := false
	if len(s.master.queue) > 0 {
		t, found = s.master.queue[0].at, true
	}
	for _, e := range s.domains {
		if len(e.queue) > 0 && (!found || e.queue[0].at < t) {
			t, found = e.queue[0].at, true
		}
	}
	return t, found
}

// drainThrough steps e until its next event is beyond t, it halts, or the
// budget (0 = unlimited) is exhausted. Returns events fired.
func drainThrough(e *Engine, t Time, budget uint64) uint64 {
	var n uint64
	for len(e.queue) > 0 && e.queue[0].at <= t && !e.halted {
		if budget > 0 && n >= budget {
			break
		}
		e.Step()
		n++
	}
	return n
}

func (s *ShardSet) halted() bool {
	if s.master.halted {
		return true
	}
	for _, e := range s.domains {
		if e.halted {
			return true
		}
	}
	return false
}

// Run executes the lockstep schedule until global quiescence (only daemon
// events remain anywhere), Halt on any engine, a Check error, or maxEvents
// total fired events (0 = no limit; the cap error matches Engine.Run's).
func (s *ShardSet) Run(maxEvents uint64) (uint64, error) {
	s.master.halted = false
	for _, e := range s.domains {
		e.halted = false
	}
	var n uint64
	counts := make([]uint64, len(s.domains))
	// One resident worker set for the whole run: the lockstep loop fans out
	// once (often several times) per virtual instant, so per-phase goroutine
	// spawn/join — what parallel.Run would cost here — is paid millions of
	// times per emulation. Closed on every exit path so runs never leak
	// goroutines into long-lived processes (crystald keeps emulations warm).
	pool := parallel.NewPool(s.workers)
	defer pool.Close()
	for {
		if s.Check != nil {
			if err := s.Check(); err != nil {
				return n, err
			}
		}
		if s.halted() {
			return n, nil
		}
		if total, daemons := s.pendingTotals(); total == daemons {
			return n, nil
		}
		t, ok := s.nextInstant()
		if !ok {
			return n, nil
		}
		// Synchronize clocks so every engine agrees on "now" for the whole
		// instant — serial master code scheduling on a domain engine (and
		// vice versa) must measure delays from T, not from whenever that
		// engine last fired an event. Safe: t is the global minimum, so no
		// engine has a pending event before it.
		s.master.now = t
		for _, e := range s.domains {
			e.now = t
		}
		// Rounds at this instant: master serially, then domains in
		// parallel, until no engine has events left at t. (Master events at
		// t can seed domain events at t; staged cross-domain deliveries are
		// strictly later, so this converges.)
		for {
			budget := uint64(0)
			if maxEvents > 0 {
				if n >= maxEvents {
					return n, fmt.Errorf("sim: event cap %d reached at t=%s (possible livelock)", maxEvents, t)
				}
				budget = maxEvents - n
			}
			n += drainThrough(s.master, t, budget)
			s.inParallel = true
			pool.Do(len(s.domains), func(d int) {
				counts[d] = drainThrough(s.domains[d], t, budget)
			})
			s.inParallel = false
			for d, c := range counts {
				n += c
				counts[d] = 0
			}
			for _, fold := range s.folds {
				fold()
			}
			// Flush staged cross-domain deliveries in canonical (source
			// domain, append) order so target-engine sequence numbers are
			// independent of goroutine scheduling.
			for d := range s.outboxes {
				for _, se := range s.outboxes[d] {
					se.target.At(se.at, se.fn)
				}
				s.outboxes[d] = s.outboxes[d][:0]
			}
			if maxEvents > 0 && n >= maxEvents {
				return n, fmt.Errorf("sim: event cap %d reached at t=%s (possible livelock)", maxEvents, t)
			}
			if s.halted() {
				return n, nil
			}
			if !s.anyAt(t) {
				break
			}
		}
	}
}

// anyAt reports whether any engine still has an event at or before t.
func (s *ShardSet) anyAt(t Time) bool {
	if len(s.master.queue) > 0 && s.master.queue[0].at <= t {
		return true
	}
	for _, e := range s.domains {
		if len(e.queue) > 0 && e.queue[0].at <= t {
			return true
		}
	}
	return false
}

// CancelAll drops every pending event on every engine in the set.
func (s *ShardSet) CancelAll() {
	s.master.CancelAll()
	for _, e := range s.domains {
		e.CancelAll()
	}
}

// SnapshotDomains captures the state of every domain engine; it fails if any
// is not quiescent (same contract as Engine.Snapshot).
func (s *ShardSet) SnapshotDomains() ([]EngineState, error) {
	out := make([]EngineState, len(s.domains))
	for d, e := range s.domains {
		st, err := e.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("sim: domain %d: %w", d, err)
		}
		out[d] = st
	}
	return out, nil
}

// NewShardSetFrom rebuilds a shard set from a master engine and captured
// domain states — the fork path. The restored domain engines continue their
// captured RNG streams exactly as NewEngineFrom does for the master.
func NewShardSetFrom(master *Engine, states []EngineState, workers int) *ShardSet {
	s := &ShardSet{
		master:   master,
		domains:  make([]*Engine, len(states)),
		workers:  workers,
		outboxes: make([][]stagedEvent, len(states)),
	}
	for d, st := range states {
		s.domains[d] = NewEngineFrom(st)
	}
	return s
}

// Fired sums fired-event counters across the ensemble.
func (s *ShardSet) Fired() uint64 {
	n := s.master.Fired()
	for _, e := range s.domains {
		n += e.Fired()
	}
	return n
}

// Pending sums pending events across the ensemble.
func (s *ShardSet) Pending() int {
	total, _ := s.pendingTotals()
	return total
}

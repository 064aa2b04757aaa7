// Package sim provides the discrete-event simulation engine that drives
// every CrystalNet emulation in this repository.
//
// The real CrystalNet runs vendor firmware in wall-clock time on cloud VMs.
// Here, every component — cloud provisioning, firmware boot, BGP message
// processing, link propagation — is an event scheduled on a single virtual
// clock. This makes emulations of thousands of devices deterministic,
// seedable and fast on a single core, while preserving the latency shape the
// paper reports (Figures 8 and 9).
//
// DESIGN.md §1 records virtual time as the repo's central substitution;
// traced runs stamp spans with this clock (DESIGN.md §7,
// docs/OBSERVABILITY.md).
package sim

import (
	"fmt"
	"strconv"
	"time"

	"crystalnet/internal/obs"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation.
type Time time.Duration

// String formats the virtual time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the virtual time in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Minutes returns the virtual time in minutes.
func (t Time) Minutes() float64 { return time.Duration(t).Minutes() }

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// event is a scheduled callback. Events are recycled through the engine's
// free list once they fire or are canceled; gen guards stale Timer handles
// against canceling an unrelated reuse. When it fires is not here but in the
// event's heap slot. A Lane's resident event has lane set instead of fn and
// is never recycled: it stands in the heap for the lane's head item.
type event struct {
	fn     func()
	index  int // heap index, -1 once popped or canceled
	gen    uint32
	daemon bool // background event: does not keep Run from converging
	eng    *Engine
	lane   laneEvents
}

// slot is one element of the event heap: an event and, inline, the key that
// orders it — its time, then its insertion sequence, for deterministic FIFO
// order at equal times. A sift compares the keys in the heap's own array and
// touches an event only to record where it moved it; with the key behind the
// pointer, every comparison of a mockup's few-thousand-event heap was two
// cache misses.
type slot struct {
	at  Time
	seq uint64
	ev  *event
}

// before reports whether a fires before b: earlier time, then FIFO seq.
func (a *slot) before(b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a hand-rolled 4-ary min-heap of slots ordered by (time,
// insertion sequence). container/heap's interface indirection and swap-based
// sifting showed up as ~9% of a mockup's CPU profile, so the sifts here move
// a hole instead (one assignment per level) with the comparison inlined, and
// four children a node halve the levels a pop descends, all four keys in
// adjacent memory. The pop order — strictly ascending (at, seq), a total
// order — does not depend on the heap's shape.
type eventQueue []slot

// heapArity is the number of children of a heap node.
const heapArity = 4

// put stores s at index i and tells its event.
func (q eventQueue) put(i int, s slot) {
	q[i] = s
	s.ev.index = i
}

// push appends s and sifts it up.
func (q *eventQueue) push(s slot) {
	*q = append(*q, s)
	q.siftUp(len(*q)-1, s)
}

// popMin removes and returns the next slot to fire.
func (q *eventQueue) popMin() slot {
	min := (*q)[0]
	q.removeAt(0)
	return min
}

// siftDown places s into the hole at i, descending while a child orders
// before it.
func (q eventQueue) siftDown(i int, s slot) {
	n := len(q)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		for k, end := c+1, min(c+heapArity, n); k < end; k++ {
			if q[k].before(&q[c]) {
				c = k
			}
		}
		if !q[c].before(&s) {
			break
		}
		q.put(i, q[c])
		i = c
	}
	q.put(i, s)
}

// siftUp places s into the hole at i, ascending while it orders before the
// parent.
func (q eventQueue) siftUp(i int, s slot) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !s.before(&q[p]) {
			break
		}
		q.put(i, q[p])
		i = p
	}
	q.put(i, s)
}

// removeAt deletes the slot at index i (the minimum, or a canceled timer's)
// by moving the last slot into the hole, whichever way it has to go.
func (q *eventQueue) removeAt(i int) {
	h := *q
	n := len(h) - 1
	h[i].ev.index = -1
	last := h[n]
	h[n] = slot{}
	*q = h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&h[(i-1)/heapArity]) {
		h[:n].siftUp(i, last)
	} else {
		h[:n].siftDown(i, last)
	}
}

// Timer is a handle to a scheduled event that can be canceled before it fires.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel prevents the timer's callback from running and removes the event
// from the queue immediately, so mass-cancellation never bloats the heap.
// Canceling an already-fired or already-canceled timer is a no-op. It
// returns true if the timer was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil {
		return false
	}
	ev := t.ev
	if ev.gen != t.gen || ev.index < 0 {
		return false
	}
	if ev.daemon {
		ev.eng.daemons--
	}
	ev.eng.queue.removeAt(ev.index)
	ev.eng.recycle(ev)
	return true
}

// maxFreeEvents caps the event free list so a burst of churn does not pin
// memory forever.
const maxFreeEvents = 1 << 16

// Engine is a discrete-event simulator: a virtual clock plus an ordered
// queue of pending callbacks. It is not safe for concurrent use; CrystalNet
// emulations are single-threaded by design so that runs are reproducible
// (the experiment harness parallelizes across independent engines, never
// within one).
type Engine struct {
	now     Time
	queue   eventQueue
	free    []*event // recycled events, bounded by maxFreeEvents
	seq     uint64
	rng     *RNG
	fired   uint64
	daemons int // pending daemon events (subset of queue)
	// laneQueued counts the Lane items waiting behind their lane's head;
	// the heads themselves are in queue. laneSpares holds, per lane item
	// type, the rings drained lanes gave back (see Lane).
	laneQueued int
	laneSpares map[any]any
	rec        *obs.Recorder // nil unless tracing is enabled

	// Check, when non-nil, is polled by Run before the first event and then
	// every checkEvents events; a non-nil error aborts the run with that
	// error (the cancellation hook, as ShardSet.Check is for sharded runs).
	// It must not touch the engine: a run that is never aborted fires the
	// same events whether or not a Check is set.
	Check func() error
}

// checkEvents is how many events Run fires between Check polls: coarse
// enough to keep the poll off the hot loop, fine enough that an abandoned
// request stops within milliseconds of wall time.
const checkEvents = 1 << 15

// NewEngine returns an engine whose random source is seeded with seed.
// Two engines built with the same seed and fed the same schedule produce
// identical executions.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// EngineState is the serializable scalar state of a quiescent engine: the
// clock, the scheduling and fired counters, and the RNG stream position.
// It deliberately excludes the event queue — an engine can only be
// snapshotted when the queue is empty, because pending events are closures
// that cannot be duplicated into another run.
type EngineState struct {
	Now   Time
	Seq   uint64
	Fired uint64
	RNG   RNGState
}

// Snapshot captures the engine's state. It fails unless the engine is
// quiescent (no pending events): quiescence is the contract that makes a
// restored engine's future identical to the original's.
func (e *Engine) Snapshot() (EngineState, error) {
	if n := e.Pending(); n != 0 {
		if e.daemons == n {
			return EngineState{}, fmt.Errorf("sim: cannot snapshot engine with %d pending daemon events (background failure/health timers cannot cross a snapshot)", e.daemons)
		}
		return EngineState{}, fmt.Errorf("sim: cannot snapshot engine with %d pending events", n)
	}
	return EngineState{Now: e.now, Seq: e.seq, Fired: e.fired, RNG: e.rng.State()}, nil
}

// NewEngineFrom restores an engine from a snapshot. The restored engine has
// an empty queue, the captured clock/counters, and an RNG that continues
// the captured draw stream — scheduling the same events on it produces the
// same execution the original engine would have produced.
func NewEngineFrom(st EngineState) *Engine {
	return &Engine{now: st.Now, seq: st.Seq, fired: st.Fired, rng: NewRNGFrom(st.RNG)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. All randomness in
// an emulation (boot jitter, failure injection, ECMP seeds) must come from
// here to keep runs reproducible.
func (e *Engine) Rand() *RNG { return e.rng }

// SetRecorder attaches an observability recorder and binds its clock to
// this engine's virtual time. Passing nil disables tracing. The recorder
// rides along with the engine so every layer that can see the engine (or
// is forked with it) shares one trace; the Step/Run hot loop itself is
// never instrumented per event.
func (e *Engine) SetRecorder(rec *obs.Recorder) {
	e.rec = rec
	if rec != nil {
		rec.SetClock(func() int64 { return int64(e.now) })
	}
}

// Recorder returns the attached recorder, nil when tracing is disabled.
// A nil result is safe to call methods on — obs treats it as the
// disabled tracer.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Pending reports the number of live events still queued, Lane items
// included. Canceled events are removed from the queue eagerly, so they
// never count.
func (e *Engine) Pending() int { return len(e.queue) + e.laneQueued }

// PendingDaemons reports how many of the pending events are daemon
// (background) events scheduled via Daemon.
func (e *Engine) PendingDaemons() int { return e.daemons }

// Fired reports how many events have executed since the engine was created.
func (e *Engine) Fired() uint64 { return e.fired }

// recycle returns a fired or canceled event to the free list. The
// generation bump invalidates any Timer handle still pointing at it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.index = -1
	ev.daemon = false
	ev.gen++
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current time (the event runs next, after events already
// queued for the current instant).
//
// At and After are thin enough to inline, so the Timer is built in the
// caller's frame: the many callers that drop the handle never allocate it.
func (e *Engine) At(t Time, fn func()) *Timer {
	ev := e.schedule(t, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time (a negative d,
// like a time in the past, is clamped to now).
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	ev := e.schedule(e.now+Time(d), fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// schedule queues fn for time t, on a recycled event if one is free. It is
// kept out of line so that At and After stay inside the inlining budget.
//
//go:noinline
func (e *Engine) schedule(t Time, fn func()) *event {
	if t < e.now {
		t = e.now
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.fn = fn
	e.queue.push(slot{at: t, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// Daemon schedules fn like After, but marks the event as a background
// (daemon) event: Run treats a queue holding only daemon events as
// quiescent and returns instead of chasing them forever. MTBF failure
// timers and health-monitor ticks are daemons — they are always armed, so
// without this marker an emulation with random failures enabled could
// never "converge" (the queue would never drain). Daemon events still fire
// normally whenever ordinary events scheduled after them keep the run
// alive, and always fire under RunUntil/RunFor within the deadline.
//
// Work that a daemon event spawns should be scheduled as ordinary events
// (or further daemons, for the recurring timer itself) so that convergence
// tracks real pending work.
func (e *Engine) Daemon(d time.Duration, fn func()) *Timer {
	t := e.After(d, fn)
	t.ev.daemon = true
	e.daemons++
	return t
}

// Jitter returns a duration drawn uniformly from [d, d+spread).
func (e *Engine) Jitter(d, spread time.Duration) time.Duration {
	if spread <= 0 {
		return d
	}
	return d + time.Duration(e.rng.Int63n(int64(spread)))
}

// CancelAll drops every pending event — daemon timers included — without
// firing it. It is the teardown primitive behind a canceled emulation: an
// abandoned rehearsal discards its in-flight protocol work wholesale, then
// schedules (and drains) only the Clear sequence. Timer handles to dropped
// events become inert, exactly as after Cancel.
func (e *Engine) CancelAll() {
	for len(e.queue) > 0 {
		ev := e.queue.popMin().ev
		if ev.lane != nil {
			ev.lane.drop()
			continue
		}
		if ev.daemon {
			e.daemons--
		}
		e.recycle(ev)
	}
}

// Step executes the single next event, advancing the clock to its time.
// It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	s := e.queue.popMin()
	ev := s.ev
	e.now = s.at
	e.fired++
	if ev.lane != nil {
		ev.lane.pop()
		return true
	}
	if ev.daemon {
		e.daemons--
	}
	fn := ev.fn
	e.recycle(ev)
	fn()
	return true
}

// Run executes events until the queue drains to quiescence (no events, or
// only daemon events, remain), Check returns an error, or maxEvents fire (0
// means no limit). It returns the number of events executed and an error if
// Check gave one or the event cap was hit — which in an emulation almost
// always means a routing loop or livelock.
//
// When a recorder is attached, each Run call records one "engine/run"
// span tagged with the number of events it fired — the coarse unit of
// engine work. Individual events are never traced; that would both drown
// the trace and put work on the hot loop.
func (e *Engine) Run(maxEvents uint64) (uint64, error) {
	if e.rec == nil {
		return e.run(maxEvents)
	}
	sp := e.rec.Start("engine", "run")
	n, err := e.run(maxEvents)
	sp.End(obs.Attr{K: "events", V: strconv.FormatUint(n, 10)})
	return n, err
}

func (e *Engine) run(maxEvents uint64) (uint64, error) {
	var n uint64
	for {
		if maxEvents > 0 && n >= maxEvents {
			return n, fmt.Errorf("sim: event cap %d reached at t=%s (possible livelock)", maxEvents, e.now)
		}
		if e.Check != nil && n%checkEvents == 0 {
			if err := e.Check(); err != nil {
				return n, err
			}
		}
		// Quiescent when only daemon events (recurring background timers)
		// remain: the emulation has no real work left, so Run converges
		// instead of firing failure/health timers until the end of time.
		if len(e.queue) == e.daemons {
			break
		}
		if !e.Step() {
			break
		}
		n++
	}
	return n, nil
}

// RunUntil executes events with time ≤ deadline. Events scheduled beyond the
// deadline stay queued; the clock is advanced to the deadline if it was
// reached without draining. It returns the number of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	var n uint64
	for len(e.queue) > 0 {
		if e.queue[0].at > deadline {
			e.now = deadline
			return n
		}
		e.Step()
		n++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return n
}

// RunFor executes events for d of virtual time from now.
func (e *Engine) RunFor(d time.Duration) uint64 {
	return e.RunUntil(e.now.Add(d))
}

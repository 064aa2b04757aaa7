package sim

import "time"

// Lane is a FIFO stream of events whose times never decrease — a VM core's
// completions, one direction of a link's deliveries — kept out of the event
// heap: only the lane's head sits there, under the (time, seq) key it was
// scheduled with, and when it fires the next item takes its place under its
// own key. Every item keeps the key it would have had as a plain event (At
// draws one seq per item), and the items behind the head all order after it,
// so the engine pops exactly what it would have popped without the lane; it
// just sifts through a heap of lane heads instead of every pending event.
//
// An item scheduled earlier than the lane's tail cannot wait behind it, so
// it falls back to the heap as an ordinary event (a closure, paid only on
// that path). Lane items are neither daemons nor cancelable; CancelAll drops
// them with everything else, and Pending counts them. The head is held
// inline, so a lane with one item in flight needs no other storage, and a
// drained lane holds none: it hands its ring of queued items back to the
// engine's spares for its item type, where the next lane to queue more than
// one item finds it.
//
// A lane belongs to one engine; a fork on a new engine builds new lanes.
// DESIGN.md §1 states the invariant.
type Lane[T any] struct {
	eng   *Engine
	fire  func(T)
	spare *laneSpares[T]
	// ev is the lane's resident heap event: queued (ev.index >= 0) exactly
	// while the lane holds an item; its slot carries the head's key.
	ev   event
	head T
	tail Time // time of the last item queued, while the lane is non-empty
	// ring holds the items behind the head, oldest at ring[start], n of them;
	// nil when there are none.
	ring  []laneItem[T]
	start int
	n     int
}

// laneItem is one queued item behind a lane's head, with its heap key.
type laneItem[T any] struct {
	at  Time
	seq uint64
	v   T
}

// laneSpares holds an engine's spare rings for lanes of one item type.
type laneSpares[T any] struct {
	rings [][]laneItem[T]
}

// spareKey names an engine's laneSpares for item type T.
type spareKey[T any] struct{}

// Bounds on the spare rings an engine keeps per item type: how many, and
// the longest one worth keeping. What they pin is small next to what
// allocating a ring per burst costs the collector.
const (
	maxSpareRings = 64
	maxSpareRing  = 256
)

// laneEvents is a lane as the engine sees it through its resident event.
type laneEvents interface {
	// pop runs the head item, after putting the next one (if any) in the
	// heap under its own key.
	pop()
	// drop discards every item without running it (CancelAll).
	drop()
}

// NewLane returns an empty lane on e that runs fire on each item in turn.
func NewLane[T any](e *Engine, fire func(T)) *Lane[T] {
	if e.laneSpares == nil {
		e.laneSpares = map[any]any{}
	}
	sp, _ := e.laneSpares[spareKey[T]{}].(*laneSpares[T])
	if sp == nil {
		sp = new(laneSpares[T])
		e.laneSpares[spareKey[T]{}] = sp
	}
	l := &Lane[T]{eng: e, fire: fire, spare: sp}
	l.ev = event{index: -1, eng: e, lane: l}
	return l
}

// After queues v to be fired d after the engine's current time.
func (l *Lane[T]) After(d time.Duration, v T) { l.At(l.eng.now+Time(d), v) }

// At queues v to be fired at t (a time in the past is clamped to now, as in
// Engine.At). The item takes the engine's next seq, exactly as an Engine.At
// call in its place would.
func (l *Lane[T]) At(t Time, v T) {
	e := l.eng
	if t < e.now {
		t = e.now
	}
	switch {
	case l.ev.index < 0:
		l.head, l.tail = v, t
		e.queue.push(slot{at: t, seq: e.seq, ev: &l.ev})
	case t < l.tail:
		fire := l.fire
		e.schedule(t, func() { fire(v) })
		return // schedule drew the seq
	default:
		l.tail = t
		l.push(laneItem[T]{at: t, seq: e.seq, v: v})
		e.laneQueued++
	}
	e.seq++
}

// push appends it behind the last queued item, growing the ring when full.
func (l *Lane[T]) push(it laneItem[T]) {
	if l.n == len(l.ring) {
		grown := l.spare.take(max(4, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			grown[i] = l.ring[(l.start+i)%len(l.ring)]
		}
		l.release()
		l.ring, l.start = grown, 0
	}
	l.ring[(l.start+l.n)%len(l.ring)] = it
	l.n++
}

// release hands the lane's ring, emptied, back to the spares.
func (l *Lane[T]) release() {
	if l.ring != nil {
		clear(l.ring)
		l.spare.give(l.ring)
	}
	l.ring, l.start = nil, 0
}

// take returns a spare ring of at least n items, or a new one of n.
func (sp *laneSpares[T]) take(n int) []laneItem[T] {
	for i := len(sp.rings) - 1; i >= 0; i-- {
		if r := sp.rings[i]; len(r) >= n {
			last := len(sp.rings) - 1
			sp.rings[i], sp.rings[last] = sp.rings[last], nil
			sp.rings = sp.rings[:last]
			return r
		}
	}
	return make([]laneItem[T], n)
}

// give keeps an empty ring for reuse, within the bounds.
func (sp *laneSpares[T]) give(r []laneItem[T]) {
	if len(sp.rings) < maxSpareRings && len(r) <= maxSpareRing {
		sp.rings = append(sp.rings, r)
	}
}

func (l *Lane[T]) pop() {
	v := l.head
	if l.n == 0 {
		var zero T
		l.head = zero
	} else {
		it := l.ring[l.start]
		l.ring[l.start] = laneItem[T]{}
		l.start, l.n = (l.start+1)%len(l.ring), l.n-1
		if l.n == 0 {
			l.release()
		}
		l.head = it.v
		l.eng.laneQueued--
		l.eng.queue.push(slot{at: it.at, seq: it.seq, ev: &l.ev})
	}
	l.fire(v)
}

func (l *Lane[T]) drop() {
	var zero T
	l.head = zero
	l.eng.laneQueued -= l.n
	l.release()
	l.n = 0
}

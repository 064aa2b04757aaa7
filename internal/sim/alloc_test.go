//go:build !race

package sim

import (
	"testing"
	"time"
)

// TestAllocBudgetDiscardedTimer: a caller that drops the handle pays for its
// closure and nothing else — After and At inline, so the Timer they return
// lives in the caller's frame, and the event comes off the free list. (The
// race detector allocates on its own account; this builds without it.)
func TestAllocBudgetDiscardedTimer(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Grow the heap and stock the free list once.
	for i := 0; i < 64; i++ {
		e.After(time.Duration(i)*time.Millisecond, fn)
	}
	e.Run(0)
	if got := testing.AllocsPerRun(1000, func() {
		e.After(time.Millisecond, fn)
		e.At(e.Now().Add(2*time.Millisecond), fn)
		e.Step()
		e.Step()
	}); got != 0 {
		t.Errorf("schedule-and-fire with the handles dropped allocates %.1f times, want 0", got)
	}
	// A kept handle is the one allocation it always was.
	var keep *Timer
	if got := testing.AllocsPerRun(1000, func() {
		keep = e.After(time.Millisecond, fn)
		e.Step()
	}); got != 1 {
		t.Errorf("schedule-and-fire with the handle kept allocates %.1f times, want 1", got)
	}
	_ = keep
}

// TestAllocBudgetLane: queuing on a lane and firing allocates nothing — the
// head is held inline, and once a burst has drained, the ring it grew waits
// in the engine's spares for the next burst on any lane of the item type.
func TestAllocBudgetLane(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	lanes := []*Lane[[]byte]{NewLane(e, func([]byte) { fired++ }), NewLane(e, func([]byte) { fired++ })}
	frame := make([]byte, 64)
	burst := func(l *Lane[[]byte]) {
		for i := 0; i < 8; i++ {
			l.After(time.Millisecond, frame)
		}
		e.Run(0)
	}
	burst(lanes[0])
	if got := testing.AllocsPerRun(1000, func() {
		lanes[0].After(time.Millisecond, frame)
		e.Step()
	}); got != 0 {
		t.Errorf("one item in flight allocates %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() { burst(lanes[1]) }); got != 0 {
		t.Errorf("a burst after another lane's drained allocates %.1f times, want 0", got)
	}
}

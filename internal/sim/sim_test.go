package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine Pending() = %d, want 0", e.Pending())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(5*time.Second, func() { at = e.Now() })
	if n, err := e.Run(0); err != nil || n != 1 {
		t.Fatalf("Run = %d, %v; want 1, nil", n, err)
	}
	if at != Time(5*time.Second) {
		t.Fatalf("event fired at %v, want 5s", at)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestEventOrderingByTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Second, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-time events must be FIFO)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.After(time.Second, func() {
		hits = append(hits, e.Now())
		e.After(time.Second, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run(0)
	if len(hits) != 2 || hits[0] != Time(time.Second) || hits[1] != Time(2*time.Second) {
		t.Fatalf("hits = %v, want [1s 2s]", hits)
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.After(10*time.Second, func() {
		e.At(Time(3*time.Second), func() { fired = e.Now() }) // in the past
	})
	e.Run(0)
	if fired != Time(10*time.Second) {
		t.Fatalf("past event fired at %v, want clamped to 10s", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel returned false for pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run(0)
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(time.Second, func() {})
	e.Run(0)
	if tm.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunEventCap(t *testing.T) {
	e := NewEngine(1)
	var loop func()
	loop = func() { e.After(time.Millisecond, loop) }
	e.After(0, loop)
	n, err := e.Run(100)
	if err == nil {
		t.Fatal("Run with livelock returned nil error")
	}
	if n != 100 {
		t.Fatalf("Run executed %d events, want 100", n)
	}
}

// TestRunCheckAborts: Run polls Check before the first event and then every
// checkEvents events, stops at the first error with the queue intact, and a
// Check that never errs changes nothing about the run.
func TestRunCheckAborts(t *testing.T) {
	spinning := func() *Engine {
		e := NewEngine(1)
		var spin func()
		spin = func() { e.After(time.Millisecond, spin) }
		e.At(0, spin)
		return e
	}
	e := spinning()
	canceled := errors.New("canceled")
	polls := 0
	e.Check = func() error {
		if polls++; polls > 3 {
			return canceled
		}
		return nil
	}
	if n, err := e.Run(0); err != canceled || n != 3*checkEvents {
		t.Fatalf("Run = %d, %v; want %d events and the check's error", n, err, 3*checkEvents)
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending after the abort, want the spinner's next one", e.Pending())
	}

	plain, checked := spinning(), spinning()
	checked.Check = func() error { return nil }
	n1, err1 := plain.Run(2*checkEvents + 5)
	n2, err2 := checked.Run(2*checkEvents + 5)
	if n1 != n2 || err1 == nil || err2 == nil || err1.Error() != err2.Error() || plain.Now() != checked.Now() {
		t.Fatalf("a passing Check changed the run: %d %v at %s vs %d %v at %s", n1, err1, plain.Now(), n2, err2, checked.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	n := e.RunUntil(Time(3 * time.Second))
	if n != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", n)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// The remaining event still fires later.
	e.Run(0)
	if len(fired) != 3 || fired[2] != Time(5*time.Second) {
		t.Fatalf("fired = %v, want last at 5s", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(Time(7 * time.Second))
	if e.Now() != Time(7*time.Second) {
		t.Fatalf("clock = %v, want 7s", e.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(2 * time.Second)
	e.RunFor(3 * time.Second)
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
}

func TestDeterminismAcrossEngines(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var vals []int64
		for i := 0; i < 50; i++ {
			e.After(e.Jitter(time.Second, time.Second), func() {
				vals = append(vals, e.rng.Int63n(1000))
			})
		}
		e.Run(0)
		return vals
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d differs: %d vs %d (engine not deterministic)", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestJitterBounds(t *testing.T) {
	e := NewEngine(9)
	for i := 0; i < 1000; i++ {
		d := e.Jitter(time.Second, 500*time.Millisecond)
		if d < time.Second || d >= 1500*time.Millisecond {
			t.Fatalf("Jitter = %v, want [1s, 1.5s)", d)
		}
	}
	if d := e.Jitter(time.Second, 0); d != time.Second {
		t.Fatalf("Jitter with zero spread = %v, want 1s", d)
	}
}

func TestCanceledFarFutureTimerDoesNotStallRunUntil(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(time.Hour, func() {})
	tm.Cancel()
	fired := false
	e.After(time.Second, func() { fired = true })
	e.RunUntil(Time(2 * time.Second))
	if !fired {
		t.Fatal("near event did not fire")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 after canceled event discarded", e.Pending())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(90 * time.Second)
	if a.Seconds() != 90 {
		t.Fatalf("Seconds = %v", a.Seconds())
	}
	if a.Add(30*time.Second) != Time(2*time.Minute) {
		t.Fatal("Add wrong")
	}
	if a.Sub(Time(30*time.Second)) != time.Minute {
		t.Fatal("Sub wrong")
	}
	if a.String() != "1m30s" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: for any batch of non-negative delays, Run executes exactly one
// event per delay and the clock ends at the maximum delay.
func TestPropertyRunExecutesAll(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			e.After(dd, func() {})
		}
		n, err := e.Run(0)
		if err != nil {
			return false
		}
		if n != uint64(len(delays)) {
			return false
		}
		return len(delays) == 0 || e.Now() == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events always fire in nondecreasing time order.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(3)
		var times []Time
		for _, d := range delays {
			e.After(time.Duration(d)*time.Millisecond, func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonDoesNotBlockRunConvergence(t *testing.T) {
	e := NewEngine(1)
	var work, ticks int
	e.After(2*time.Second, func() { work++ })
	e.Daemon(10*time.Second, func() { ticks++ })
	n, err := e.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 1 || work != 1 || ticks != 0 {
		t.Fatalf("Run fired n=%d work=%d ticks=%d; want 1,1,0 (daemon must stay queued)", n, work, ticks)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("clock = %v, want 2s (Run must not chase the daemon)", e.Now())
	}
	if e.Pending() != 1 || e.daemons != 1 {
		t.Fatalf("Pending=%d daemons=%d, want 1,1", e.Pending(), e.daemons)
	}
}

func TestDaemonFiresWhenOvertakenByRealWork(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Daemon(5*time.Second, func() { order = append(order, "daemon") })
	e.After(10*time.Second, func() { order = append(order, "work") })
	e.Run(0)
	// The daemon's time precedes pending real work, so it fires in order.
	if len(order) != 2 || order[0] != "daemon" || order[1] != "work" {
		t.Fatalf("order = %v, want [daemon work]", order)
	}
	if e.daemons != 0 {
		t.Fatalf("daemons = %d after firing, want 0", e.daemons)
	}
}

func TestDaemonFiresUnderRunUntil(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	var rearm func()
	rearm = func() { e.Daemon(time.Minute, func() { ticks++; rearm() }) }
	rearm()
	e.RunFor(10 * time.Minute)
	if ticks != 10 {
		t.Fatalf("ticks = %d over 10m of RunFor, want 10", ticks)
	}
	if e.daemons != 1 {
		t.Fatalf("daemons = %d, want 1 (re-armed tick)", e.daemons)
	}
}

func TestDaemonCancelRestoresQuiescence(t *testing.T) {
	e := NewEngine(1)
	tm := e.Daemon(time.Hour, func() {})
	if e.daemons != 1 {
		t.Fatalf("daemons = %d, want 1", e.daemons)
	}
	if !tm.Cancel() {
		t.Fatal("Cancel returned false for pending daemon")
	}
	if e.Pending() != 0 || e.daemons != 0 {
		t.Fatalf("Pending=%d daemons=%d after cancel, want 0,0", e.Pending(), e.daemons)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Fatalf("Snapshot after daemon cancel: %v", err)
	}
}

// TestSnapshotCarriesDaemons: a snapshot is taken with daemons pending, and
// a restored engine that re-arms them by key (in any order) fires them, and
// the events scheduled after the restore, in the order the original does:
// same instants, same ties.
func TestSnapshotCarriesDaemons(t *testing.T) {
	e := NewEngine(1)
	var order []string
	log := func(eng *Engine, name string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%s", name, eng.Now())) }
	}
	e.After(time.Second, func() {})
	keys := []Key{
		e.Daemon(time.Hour, log(e, "a")).Key(),
		e.Daemon(time.Minute, log(e, "b")).Key(),
		e.Daemon(time.Hour, log(e, "c")).Key(),
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with an ordinary event pending")
	}
	e.Run(0)
	st, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot with only daemons pending: %v", err)
	}
	f := NewEngineFrom(st)
	names := []string{"a", "b", "c"}
	for i := len(keys) - 1; i >= 0; i-- {
		f.DaemonAt(keys[i], log(f, names[i]))
	}
	if f.Pending() != 3 || f.daemons != 3 {
		t.Fatalf("restored engine: Pending %d, daemons %d, want 3 and 3", f.Pending(), f.daemons)
	}
	for _, eng := range []*Engine{e, f} {
		eng.At(Time(time.Hour), log(eng, "d"))
		eng.RunFor(2 * time.Hour)
	}
	want := []string{"b@1m0s", "a@1h0m0s", "c@1h0m0s", "d@1h0m0s"}
	if got := strings.Join(order, " "); got != strings.Join(slices.Concat(want, want), " ") {
		t.Fatalf("firing order %s, want %v twice", got, want)
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestLanePopsInKeyOrderAgainstModel drives random interleavings of At,
// After, Daemon, Cancel, lane At (in order and, on purpose, earlier than the
// lane's tail, which falls back to the heap), CancelAll and Step through the
// engine and through a reference model — every pending item with the (at,
// seq) key it was scheduled under, re-sorted before every pop — and requires
// the same item to fire at the same time at every step. After every
// operation Pending and the daemon count must match what the model holds, lane
// items included, Snapshot must refuse an engine with anything but daemons
// pending, naming that count, and a lane with nothing behind its head must
// hold no array.
func TestLanePopsInKeyOrderAgainstModel(t *testing.T) {
	type pending struct {
		at     Time
		seq    uint64
		id     int
		timer  *Timer // nil for lane items
		daemon bool
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var model []pending
		fired, nextID := -1, 0
		lanes := make([]*Lane[int], 3)
		for i := range lanes {
			lanes[i] = NewLane(e, func(id int) { fired = id })
		}
		// Few distinct times, so seq breaks many ties; some in the past.
		offset := func() time.Duration { return time.Duration(rng.Intn(40)-5) * time.Millisecond }
		add := func(at Time, timer *Timer, daemon bool) {
			p := pending{at: max(at, e.now), seq: e.seq - 1, id: nextID, timer: timer, daemon: daemon}
			if timer != nil && timer.Key() != (Key{At: p.at, Seq: p.seq}) {
				t.Fatalf("seed %d: timer key %+v, queued at %v seq %d", seed, timer.Key(), p.at, p.seq)
			}
			model = append(model, p)
			nextID++
		}
		sortModel := func() {
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
		}
		check := func(op int) {
			daemons := 0
			for _, p := range model {
				if p.daemon {
					daemons++
				}
			}
			if e.Pending() != len(model) || e.daemons != daemons {
				t.Fatalf("seed %d op %d: Pending %d / daemons %d, model holds %d / %d", seed, op, e.Pending(), e.daemons, len(model), daemons)
			}
			_, err := e.Snapshot()
			switch {
			case len(model) == daemons && err != nil:
				t.Fatalf("seed %d op %d: Snapshot of an engine with only %d daemons pending: %v", seed, op, daemons, err)
			case len(model) > daemons && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" %d pending", len(model)))):
				t.Fatalf("seed %d op %d: Snapshot with %d pending: %v", seed, op, len(model), err)
			}
			for i, l := range lanes {
				if l.n == 0 && l.ring != nil {
					t.Fatalf("seed %d op %d: lane %d holds an array with nothing queued", seed, op, i)
				}
			}
		}

		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(20); {
			case r < 3:
				id := nextID
				d := offset()
				add(e.now+Time(max(d, 0)), e.After(d, func() { fired = id }), false)
			case r < 6:
				id := nextID
				at := e.now + Time(offset())
				add(at, e.At(at, func() { fired = id }), false)
			case r < 7:
				id := nextID
				d := max(offset(), 0)
				add(e.now+Time(d), e.Daemon(d, func() { fired = id }), true)
			case r < 12:
				l := lanes[rng.Intn(len(lanes))]
				at := e.now + Time(offset())
				if laneLen(l) > 0 && rng.Intn(3) > 0 {
					// Mostly at or after the tail, the lane's own path.
					at = l.tail + Time(rng.Intn(3))*Time(time.Millisecond)
				}
				id := nextID
				l.At(at, id)
				add(at, nil, false)
			case r < 14 && len(model) > 0:
				var timed []int
				for i, p := range model {
					if p.timer != nil {
						timed = append(timed, i)
					}
				}
				if len(timed) == 0 {
					break
				}
				i := timed[rng.Intn(len(timed))]
				if !model[i].timer.Cancel() {
					t.Fatalf("seed %d: Cancel of pending event %d returned false", seed, model[i].id)
				}
				model = append(model[:i], model[i+1:]...)
			case r == 14 && rng.Intn(10) == 0:
				e.CancelAll()
				model = model[:0]
				for i, l := range lanes {
					if laneLen(l) != 0 || l.ring != nil {
						t.Fatalf("seed %d: lane %d kept %d items / its array across CancelAll", seed, i, laneLen(l))
					}
				}
			default:
				if len(model) == 0 {
					if e.Step() {
						t.Fatalf("seed %d: Step fired with nothing pending", seed)
					}
					break
				}
				sortModel()
				want := model[0]
				model = model[1:]
				if !e.Step() {
					t.Fatalf("seed %d: Step found nothing with %d events pending", seed, len(model)+1)
				}
				if fired != want.id || e.now != want.at {
					t.Fatalf("seed %d op %d: fired %d at %v, model says %d at %v", seed, op, fired, e.now, want.id, want.at)
				}
			}
			check(op)
		}
		sortModel()
		for _, want := range model {
			if !e.Step() || fired != want.id || e.now != want.at {
				t.Fatalf("seed %d: drain fired %d at %v, model says %d at %v", seed, fired, e.now, want.id, want.at)
			}
		}
		if e.Step() {
			t.Fatalf("seed %d: engine outlived the model", seed)
		}
		for i, l := range lanes {
			if laneLen(l) != 0 || l.ring != nil {
				t.Fatalf("seed %d: drained lane %d holds %d items / an array", seed, i, laneLen(l))
			}
		}
	}
}

// laneLen is the number of items l holds, its head included.
func laneLen[T any](l *Lane[T]) int {
	if l.ev.index < 0 {
		return 0
	}
	return 1 + l.n
}

// TestLaneMatchesPlainEvents: the same schedule built once with lanes and
// once with one Engine.At per item fires the same items at the same times,
// and leaves the engines with the same seq and fired counters.
func TestLaneMatchesPlainEvents(t *testing.T) {
	run := func(useLanes bool) (string, uint64, uint64) {
		e := NewEngine(7)
		var b strings.Builder
		log := func(id int) { fmt.Fprintf(&b, "%d@%v ", id, e.Now()) }
		lanes := []*Lane[int]{NewLane(e, log), NewLane(e, log)}
		rng := rand.New(rand.NewSource(7))
		next := 0
		var spawn func(int)
		spawn = func(id int) {
			log(id)
			for k := rng.Intn(3); k > 0 && next < 3000; k-- {
				li := rng.Intn(2)
				d := time.Duration(li+1) * time.Millisecond // a fixed latency per lane
				id := next
				next++
				if useLanes {
					lanes[li].After(d, id)
				} else {
					e.After(d, func() { log(id) })
				}
				if rng.Intn(4) == 0 {
					e.After(time.Duration(rng.Intn(3))*time.Millisecond, func() { spawn(-1) })
				}
			}
		}
		for i := 0; i < 8; i++ {
			e.After(time.Duration(i)*time.Microsecond, func() { spawn(-1) })
		}
		e.Run(0)
		return b.String(), e.seq, e.Fired()
	}
	plain, seqP, firedP := run(false)
	laned, seqL, firedL := run(true)
	if plain != laned || seqP != seqL || firedP != firedL {
		t.Fatalf("lanes changed the schedule: seq %d/%d fired %d/%d", seqP, seqL, firedP, firedL)
	}
}

// TestShardSetCountsLaneItems: a ShardSet's Pending counts the items queued
// behind lane heads on every engine, and Run fires them all.
func TestShardSetCountsLaneItems(t *testing.T) {
	master := NewEngine(1)
	s := NewShardSet(master, 1, 2, 2)
	var fired [3]int // per engine: domains drain in parallel
	for d := -1; d < 2; d++ {
		l := NewLane(s.Engine(d), func(int) { fired[d+1]++ })
		for i := 0; i < 5; i++ {
			l.After(time.Duration(i)*time.Millisecond, i)
		}
	}
	if got, _ := s.pendingTotals(); got != 15 {
		t.Fatalf("ShardSet pending = %d with 15 lane items queued", got)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if left, _ := s.pendingTotals(); fired != [3]int{5, 5, 5} || left != 0 {
		t.Fatalf("fired %v of 5 lane items per engine, %d left pending", fired, left)
	}
}

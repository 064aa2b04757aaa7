package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHeapPopsInKeyOrderAgainstModel drives random At/After/Cancel/Step
// interleavings through the engine and through a reference model — a slice
// re-sorted by (at, seq) before every pop — and requires the same event to
// fire at the same time at every step, the heap's index bookkeeping to stay
// exact, and Cancel to remove precisely the event it names; the root and the
// last slot, the two ends of removeAt, are canceled on purpose.
func TestHeapPopsInKeyOrderAgainstModel(t *testing.T) {
	type pending struct {
		at    Time
		seq   uint64
		id    int
		timer *Timer
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		var model []pending
		fired, nextID := -1, 0

		schedule := func() {
			id := nextID
			nextID++
			fn := func() { fired = id }
			p := pending{seq: e.seq, id: id}
			// Few distinct times, so seq breaks many ties; some in the past.
			if rng.Intn(2) == 0 {
				at := e.now + Time(rng.Intn(40)-5)*Time(time.Millisecond)
				p.at, p.timer = max(at, e.now), e.At(at, fn)
			} else {
				d := time.Duration(rng.Intn(40)-5) * time.Millisecond
				p.at, p.timer = e.now+Time(max(d, 0)), e.After(d, fn)
			}
			model = append(model, p)
		}
		sortModel := func() {
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
		}
		cancel := func(i int) {
			if !model[i].timer.Cancel() {
				t.Fatalf("seed %d: Cancel of pending event %d returned false", seed, model[i].id)
			}
			if model[i].timer.Cancel() {
				t.Fatalf("seed %d: second Cancel of event %d returned true", seed, model[i].id)
			}
			model = append(model[:i], model[i+1:]...)
		}
		check := func() {
			if len(e.queue) != len(model) {
				t.Fatalf("seed %d: %d events queued, model holds %d", seed, len(e.queue), len(model))
			}
			for i, s := range e.queue {
				if s.ev.index != i {
					t.Fatalf("seed %d: slot %d holds an event that thinks it is at %d", seed, i, s.ev.index)
				}
				if i > 0 && s.before(&e.queue[(i-1)/heapArity]) {
					t.Fatalf("seed %d: slot %d orders before its parent", seed, i)
				}
			}
		}

		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(model) == 0:
				schedule()
			case r == 5: // cancel the root
				sortModel()
				cancel(0)
			case r == 6: // cancel whatever sits in the heap's last slot
				last := e.queue[len(e.queue)-1].ev
				for i := range model {
					if model[i].timer.ev == last {
						cancel(i)
						break
					}
				}
			case r == 7:
				cancel(rng.Intn(len(model)))
			default:
				sortModel()
				want := model[0]
				model = model[1:]
				if !e.Step() {
					t.Fatalf("seed %d: Step found nothing with %d events pending", seed, len(model)+1)
				}
				if fired != want.id || e.now != want.at {
					t.Fatalf("seed %d op %d: fired event %d at %v, model says %d at %v", seed, op, fired, e.now, want.id, want.at)
				}
				if want.timer.Cancel() {
					t.Fatalf("seed %d: Cancel of fired event %d returned true", seed, want.id)
				}
			}
			check()
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
	}
}

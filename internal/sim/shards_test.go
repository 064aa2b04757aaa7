package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// runShardWorkload drives a fixed cross-domain workload — per-domain event
// chains with RNG-jittered delays plus cross-domain sends every third step —
// and returns the per-domain observation logs and the ensemble's final
// clock. Each log is appended only by its own domain's engine, so the logs
// are race-free and capture exactly the per-engine execution order.
func runShardWorkload(t *testing.T, workers int) ([]string, Time) {
	t.Helper()
	const domains = 3
	master := NewEngine(42)
	s := NewShardSet(master, 42, domains, workers)
	logs := make([][]string, domains)
	for d := 0; d < domains; d++ {
		d := d
		eng := s.Engine(d)
		var step func(i int)
		step = func(i int) {
			logs[d] = append(logs[d], fmt.Sprintf("d%d:i%d:t%s:r%d", d, i, eng.Now(), eng.Rand().Int63n(100)))
			if i >= 8 {
				return
			}
			eng.After(time.Duration(1+eng.Rand().Int63n(5))*time.Millisecond, func() { step(i + 1) })
			if i%3 == 0 {
				dst := (d + 1) % domains
				s.ScheduleAfter(d, dst, time.Millisecond, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("d%d:from-d%d:t%s", dst, d, s.Engine(dst).Now()))
				})
			}
		}
		eng.At(0, func() { step(0) })
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	out := make([]string, domains)
	for d := range logs {
		out[d] = strings.Join(logs[d], "\n")
	}
	return out, master.Now()
}

func TestShardSetDeterministicAcrossWorkers(t *testing.T) {
	// The §10 contract: per-domain execution order, RNG draws and clocks
	// must be byte-identical for every worker count; workers=1 is the
	// serial reference schedule.
	refLogs, refNow := runShardWorkload(t, 1)
	for _, w := range []int{2, 4, 16} {
		logs, now := runShardWorkload(t, w)
		if now != refNow {
			t.Fatalf("workers=%d: final clock %s, want %s", w, now, refNow)
		}
		for d := range logs {
			if logs[d] != refLogs[d] {
				t.Fatalf("workers=%d domain %d log differs from serial reference:\n%s\n--- want ---\n%s",
					w, d, logs[d], refLogs[d])
			}
		}
	}
}

func TestShardSetQuiescenceIgnoresDaemons(t *testing.T) {
	master := NewEngine(1)
	s := NewShardSet(master, 1, 2, 2)
	ticks := 0
	var rearm func()
	rearm = func() { master.Daemon(time.Second, func() { ticks++; rearm() }) }
	rearm()
	ran := false
	s.Engine(1).After(5*time.Second, func() { ran = true })
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("domain event never fired")
	}
	// The daemon tick fired while the real event kept the run alive, then
	// quiescence was declared with the re-armed daemon still pending.
	if ticks == 0 {
		t.Fatal("daemon never ticked")
	}
	if s.Pending() == 0 {
		t.Fatal("re-armed daemon should remain queued at quiescence")
	}
}

func TestShardSetEventCap(t *testing.T) {
	master := NewEngine(1)
	s := NewShardSet(master, 1, 1, 1)
	var spin func()
	spin = func() { s.Engine(0).After(0, spin) }
	s.Engine(0).At(0, spin)
	_, err := s.Run(10)
	if err == nil || !strings.Contains(err.Error(), "event cap 10 reached") {
		t.Fatalf("want cap error, got %v", err)
	}
}

func TestShardSetCheckAborts(t *testing.T) {
	master := NewEngine(1)
	s := NewShardSet(master, 1, 1, 1)
	var spin func()
	spin = func() { s.Engine(0).After(time.Millisecond, spin) }
	s.Engine(0).At(0, spin)
	calls := 0
	want := fmt.Errorf("canceled")
	s.Check = func() error {
		calls++
		if calls > 3 {
			return want
		}
		return nil
	}
	if _, err := s.Run(0); err != want {
		t.Fatalf("want check error, got %v", err)
	}
}

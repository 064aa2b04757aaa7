package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		got := Map(100, workers, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	ran := false
	Run(0, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n=0")
	}
	if out := Map(0, 4, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("Map(0) returned %d results", len(out))
	}
}

func TestRunEachJobExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	Run(n, 8, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

// TestRunPanicReachesCaller: a panicking job fails Run on the caller's
// goroutine at any worker count, with the value the serial run panics with
// (the lowest-numbered failing job), after every job below it has run.
func TestRunPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran [64]atomic.Bool
		got := func() (v any) {
			defer func() { v = recover() }()
			Map(len(ran), workers, func(i int) int {
				ran[i].Store(true)
				if i == 9 || i == 40 {
					panic(fmt.Sprintf("job %d", i))
				}
				return i
			})
			return nil
		}()
		if got != "job 9" {
			t.Fatalf("workers=%d: caller recovered %v, want the panic of job 9", workers, got)
		}
		for i := 0; i < 9; i++ {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: job %d, below the failing job, never ran", workers, i)
			}
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive worker count must pass through")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("non-positive worker count must normalize to >= 1")
	}
}

func TestPoolEachJobExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := NewPool(workers)
		const n = 500
		var counts [n]atomic.Int32
		p.Do(n, func(i int) { counts[i].Add(1) })
		p.Close()
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestPoolReusedAcrossPhases drives the pool the way the lockstep shard
// loop does: many small phases back to back on the same workers, with the
// caller reading per-phase results between dispatches (exercising the
// join-edge visibility guarantee).
func TestPoolReusedAcrossPhases(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	out := make([]int, 8)
	for phase := 0; phase < 2000; phase++ {
		p.Do(len(out), func(i int) { out[i] = phase*100 + i })
		for i, v := range out {
			if v != phase*100+i {
				t.Fatalf("phase %d: out[%d] = %d, want %d", phase, i, v, phase*100+i)
			}
		}
	}
}

func TestPoolEdgeCases(t *testing.T) {
	p := NewPool(4)
	ran := false
	p.Do(0, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n=0")
	}
	// n=1 runs inline even on a parallel pool.
	hit := 0
	p.Do(1, func(i int) { hit = i + 1 })
	if hit != 1 {
		t.Fatal("single job did not run")
	}
	// Closed pools degrade to inline execution rather than wedging.
	p.Close()
	var sum atomic.Int64
	p.Do(10, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 45 {
		t.Fatalf("post-Close Do summed %d, want 45", sum.Load())
	}
	p.Close() // double Close must be a no-op
}

func TestPoolSerialRunsInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	order := make([]int, 0, 5)
	p.Do(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial pool ran out of order: %v", order)
		}
	}
}

// The benchmark pair that motivated Pool: a phase-per-instant caller pays
// goroutine spawn/join on every Run call but only a dispatch/join on Do.
func BenchmarkRunPerPhase(b *testing.B) {
	var sink atomic.Int64
	b.ReportAllocs()
	for b.Loop() {
		Run(4, 4, func(i int) { sink.Add(int64(i)) })
	}
}

func BenchmarkPoolPerPhase(b *testing.B) {
	p := NewPool(4)
	defer p.Close()
	var sink atomic.Int64
	b.ReportAllocs()
	for b.Loop() {
		p.Do(4, func(i int) { sink.Add(int64(i)) })
	}
}

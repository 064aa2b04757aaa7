// Package parallel provides the bounded worker pool the experiment harness
// and the chaos-campaign layer use to fan independent emulation runs across
// cores (Figure 8 repetitions, Table 4 boundary sweeps, scenario chaos
// campaigns).
//
// The pool is deliberately minimal: it distributes job indices and collects
// results in input order, nothing else. Determinism comes from the jobs,
// not the pool — every job owns its own sim.Engine (and, when tracing, its
// own obs.Recorder), so jobs share no mutable state and a run's output is
// byte-identical whether it executed on 1 worker or 64. Run with
// workers <= 1 stays on the calling goroutine, which keeps single-core
// hosts and -race debugging free of scheduling noise.
//
// Run and Map spawn fresh goroutines per call, which is right when one call
// covers a whole experiment. Pool keeps a resident worker set for callers
// that fan out at high frequency — the sharded convergence lockstep
// (sim.ShardSet.Run) dispatches one phase per virtual instant and cannot
// afford a spawn/join per instant.
//
// DESIGN.md §4 records this serial-equals-parallel contract as a key
// design decision; DESIGN.md §7 relies on it for campaign traces.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run invokes fn(i) for every i in [0, n), using at most workers goroutines.
// With workers <= 1 (or a single job) everything runs serially on the
// calling goroutine — no goroutine or channel overhead on 1-core hosts.
// Run returns once every job has finished.
//
// A job that panics fails Run the same way at any worker count: the panic
// reaches the caller's goroutine, where a recover (net/http's, say) can
// catch it. In parallel, workers stop claiming jobs once one has panicked,
// the jobs already running finish, and Run re-panics with the value of the
// lowest-numbered job that panicked — the job a serial run stops at.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := -1 // the lowest job that panicked, -1 while none has
	var failure any
	job := func(i int) (ok bool) {
		defer func() {
			if ok {
				return
			}
			v := recover()
			mu.Lock()
			defer mu.Unlock()
			if failed < 0 || i < failed {
				failed, failure = i, v
			}
			next.Store(int64(n)) // claim no further jobs
		}()
		fn(i)
		return true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || !job(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed >= 0 {
		panic(failure)
	}
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines and
// returns the results indexed by i — output order is deterministic no matter
// how the jobs are scheduled.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Run(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// Pool is a reusable worker set for callers that fan out the same shape of
// work over and over. Run spawns and joins fresh goroutines on every call —
// fine for the campaign layer, where one call covers a whole experiment, but
// wasteful for the sharded convergence loop (sim.ShardSet.Run), which fans
// out once per virtual instant and so would pay goroutine start/stop once
// per instant, millions of times per emulation. A Pool keeps its workers
// parked on a channel between phases; each Do is a channel dispatch plus a
// WaitGroup join.
//
// Do carries the same memory-ordering guarantees as Run: everything the
// caller wrote before Do is visible to the jobs (channel send edge), and
// everything the jobs wrote is visible to the caller after Do returns
// (WaitGroup join edge). A pool built with workers <= 1 owns no goroutines
// at all and Do runs jobs inline on the calling goroutine — the serial
// reference schedule sharded determinism tests compare against.
type Pool struct {
	workers int
	jobs    chan poolPhase
}

// poolPhase is one Do call as seen by a worker: claim indices from next
// until they exceed n, then signal the join.
type poolPhase struct {
	n    int
	fn   func(i int)
	next *atomic.Int64
	done *sync.WaitGroup
}

// NewPool starts a pool of persistent workers (workers <= 0 means
// GOMAXPROCS, as in Workers). Callers that outlive the pooled work must
// Close it, or its goroutines leak.
func NewPool(workers int) *Pool {
	workers = Workers(workers)
	p := &Pool{workers: workers}
	if workers <= 1 {
		return p
	}
	p.jobs = make(chan poolPhase, workers)
	// Workers hold the channel value, not the field: Close nils the field
	// (single-threaded with Do by contract), and the workers must not read
	// it concurrently.
	jobs := p.jobs
	for w := 0; w < workers; w++ {
		go func() {
			for ph := range jobs {
				for {
					i := int(ph.next.Add(1)) - 1
					if i >= ph.n {
						break
					}
					ph.fn(i)
				}
				ph.done.Done()
			}
		}()
	}
	return p
}

// Do invokes fn(i) for every i in [0, n) on the pool's workers and returns
// once all have finished. A single job (or a serial pool) runs inline on the
// calling goroutine. Do must not be called concurrently with itself or with
// Close; the lockstep loop it serves is single-threaded between phases.
func (p *Pool) Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.jobs == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	k := p.workers
	if k > n {
		k = n
	}
	var next atomic.Int64
	var done sync.WaitGroup
	done.Add(k)
	ph := poolPhase{n: n, fn: fn, next: &next, done: &done}
	// k dispatches, k Done calls: a worker that drains the phase and loops
	// back to pick up a second dispatch of it just finds next exhausted and
	// signals immediately, so the accounting holds no matter which workers
	// take the sends.
	for w := 0; w < k; w++ {
		p.jobs <- ph
	}
	done.Wait()
}

// Close stops the workers. The pool stays usable afterwards — Do simply
// runs inline — so a defer'd Close composes with late stragglers.
func (p *Pool) Close() {
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
}

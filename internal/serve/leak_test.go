package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"crystalnet/internal/core"
	"crystalnet/internal/scenario"
)

// waitForGoroutines polls until the goroutine count drops back to within
// slack of base, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s leaked goroutines: %d now vs %d before\n%s", what, n, base, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCanceledRunReturnsErrCanceled(t *testing.T) {
	// Satellite (b) at the scenario layer: a run whose cancel channel has
	// fired tears down its emulation and reports core.ErrCanceled.
	ch := make(chan struct{})
	close(ch)
	if _, err := scenario.Run(tinySpec("cancel-pre", 7), scenario.Options{Cancel: ch}); err == nil {
		t.Fatal("canceled run returned a report")
	} else if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("error %v does not wrap core.ErrCanceled", err)
	}
}

func TestCanceledMidConvergenceTearsDown(t *testing.T) {
	// Cancel while the convergence drive is in flight: the chunked
	// cancelable run loop must notice, tear down and not leak the run's
	// goroutine (scenario runs are synchronous, so the real check is the
	// sentinel plus the wall-clock bound — teardown, not a full drive).
	// The fabric is sized so its mockup drive starts within a few
	// milliseconds but runs for hundreds more (8 pods: ~0.7s uncanceled
	// on a 2020s x86 core), so the cancel below lands mid-drive.
	sp := tinySpec("cancel-mid", 7)
	clos := *sp.Topology.Clos
	clos.Pods, clos.ToRsPerPod, clos.LeavesPerPod, clos.PrefixesPerToR = 8, 8, 8, 4
	sp.Topology.Clos = &clos
	base := runtime.NumGoroutine()
	ch := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := scenario.Run(sp, scenario.Options{Cancel: ch})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(ch)
	wg.Wait()
	err := <-errc
	if err == nil {
		t.Fatal("run completed despite cancellation mid-convergence")
	}
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("error %v does not wrap core.ErrCanceled", err)
	}
	waitForGoroutines(t, base, "canceled mid-convergence run")
}

func TestAbandonedRequestsDoNotLeakGoroutines(t *testing.T) {
	// Satellite (b) end to end: requests whose clients vanish mid-run —
	// some mid-convergence — must tear down deterministically, and a
	// subsequent drain must leave the daemon at its pre-traffic goroutine
	// count with zero sessions.
	base := runtime.NumGoroutine()

	s := NewServer(Config{PoolSize: 2})
	ts := httptest.NewServer(s.Handler())

	// One completed request warms the pool.
	resp, body := rehearse(t, ts, tinySpec("leak", 7), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d: %s", resp.StatusCode, body)
	}

	// Abandoned requests: fire, then cancel mid-flight.
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/rehearse", specBody(t, tinySpec("leak", 7)))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			r, err := http.DefaultClient.Do(req)
			if err == nil {
				r.Body.Close()
			}
			close(done)
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		<-done
	}

	ctx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelDrain()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	s.mu.Lock()
	left := len(s.sessions)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions survived drain", left)
	}
	waitForGoroutines(t, base, "abandoned requests + drain")
}

package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilLiveIsNoOp(t *testing.T) {
	var l *Registry
	c := l.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	g := l.Gauge("y", "")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := l.Histogram("z", "")
	h.Observe(1)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram observed")
	}
	if err := l.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveHandlesAreStable(t *testing.T) {
	l := NewRegistry(WallBuckets)
	if l.Counter("a", "x") != l.Counter("a", "x") {
		t.Fatal("same key vended distinct counters")
	}
	if l.Counter("a", "x") == l.Counter("a", "y") {
		t.Fatal("distinct labels shared a counter")
	}
	if l.Gauge("g", "") != l.Gauge("g", "") {
		t.Fatal("same key vended distinct gauges")
	}
	if l.Histogram("h", "") != l.Histogram("h", "") {
		t.Fatal("same key vended distinct histograms")
	}
}

func TestLiveConcurrentUpdates(t *testing.T) {
	l := NewRegistry(WallBuckets)
	c := l.Counter("reqs", "")
	h := l.Histogram("lat", "")
	g := l.Gauge("inflight", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %g, want 0", g.Value())
	}
}

func TestLiveQuantile(t *testing.T) {
	l := NewRegistry(WallBuckets)
	h := l.Histogram("lat", "")
	// 100 observations spread across two buckets: 50 at 2ms, 50 at 100ms.
	for i := 0; i < 50; i++ {
		h.Observe(0.002)
		h.Observe(0.100)
	}
	p50 := h.Quantile(0.50)
	if p50 <= 0 || p50 > 0.004 {
		t.Fatalf("p50 = %g, want in (0, 0.004] (the 2ms bucket)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.064 || p99 > 0.100 {
		t.Fatalf("p99 = %g, want within [0.064, 0.100] (the 100ms bucket, clamped to max)", p99)
	}
	if got := h.Quantile(1.0); got != 0.100 {
		t.Fatalf("p100 = %g, want max 0.1", got)
	}
}

func TestWritePromFormat(t *testing.T) {
	l := NewRegistry(WallBuckets)
	l.Counter("http.requests", "/v1/rehearse").Add(3)
	l.Gauge("pool.size", "").Set(2)
	l.Histogram("http.latency", "/v1/rehearse").Observe(0.5)
	var sb strings.Builder
	if err := l.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE http_requests counter",
		`http_requests{label="/v1/rehearse"} 3`,
		"# TYPE pool_size gauge",
		"pool_size 2",
		"# TYPE http_latency histogram",
		`http_latency_bucket{label="/v1/rehearse",le="+Inf"} 1`,
		`http_latency_count{label="/v1/rehearse"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestMiddlewareRecords(t *testing.T) {
	l := NewRegistry(WallBuckets)
	h := l.Middleware("/boom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	ok := l.Middleware("/ok", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("hi")) // implicit 200
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	}
	rec := httptest.NewRecorder()
	ok.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))

	if got := l.Counter("http.requests", "/boom").Value(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := l.Counter("http.errors", "/boom").Value(); got != 3 {
		t.Fatalf("errors = %d, want 3", got)
	}
	if got := l.Counter("http.errors", "/ok").Value(); got != 0 {
		t.Fatalf("ok errors = %d, want 0", got)
	}
	if got := l.Histogram("http.latency", "/ok").Count(); got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
	if got := l.Gauge("http.in_flight", "/ok").Value(); got != 0 {
		t.Fatalf("in-flight = %g, want 0", got)
	}
}

func TestNilMiddlewarePassesThrough(t *testing.T) {
	var l *Registry
	h := l.Middleware("/x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rec.Code)
	}
}

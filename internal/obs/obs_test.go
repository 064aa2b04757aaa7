package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	sp := r.Start("t", "x")
	sp.End()
	r.SpanAt("t", "y", 1, 2)
	r.Event("t", "e")
	r.EventAt("t", "e2", 5)
	r.SetClock(func() int64 { return 9 })
	if r.Spans() != nil || r.Events() != nil {
		t.Fatal("nil recorder returned data")
	}
	c := r.Counter("c", "l")
	if c != nil {
		t.Fatal("nil recorder vended non-nil counter")
	}
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("g", "")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := r.Histogram("h", "")
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram has observations")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if got := r.Summary(); !strings.Contains(got, "disabled") {
		t.Fatalf("nil summary = %q", got)
	}
	if r.Fork() != nil {
		t.Fatal("nil recorder forked to non-nil")
	}
}

func TestSpansEventsAndClock(t *testing.T) {
	var now int64
	r := New()
	r.SetClock(func() int64 { return now })

	now = 100
	sp := r.Start("boot", "dev0")
	now = 250
	sp.End(Attr{"ok", "true"})
	r.SpanAt("phase", "network-ready", 0, 250)
	now = 300
	r.Event("alert", "vm-failure", Attr{"vm", "vm3"})

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Track != "boot" || spans[0].Start != 100 || spans[0].End != 250 {
		t.Fatalf("bad span: %+v", spans[0])
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Attr{"ok", "true"}) {
		t.Fatalf("bad attrs: %+v", spans[0].Attrs)
	}
	evs := r.Events()
	if len(evs) != 1 || evs[0].At != 300 {
		t.Fatalf("bad events: %+v", evs)
	}
}

func TestMetricsRegistry(t *testing.T) {
	r := New()
	c1 := r.Counter("bgp.msgs_out", "dev0")
	c2 := r.Counter("bgp.msgs_out", "dev0")
	if c1 != c2 {
		t.Fatal("counter registration not idempotent")
	}
	c1.Inc()
	c2.Add(2)
	if c1.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c1.Value())
	}
	g := r.Gauge("vms", "")
	g.Set(12)
	if r.Gauge("vms", "").Value() != 12 {
		t.Fatal("gauge registration not idempotent")
	}
	h := r.Histogram("recovery", "")
	h.Observe(0.002)
	h.Observe(500) // beyond the last bound → +Inf bucket
	if h.Count() != 2 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h != r.Histogram("recovery", "") {
		t.Fatal("histogram registration not idempotent")
	}
}

func buildSample() *Recorder {
	var now int64
	r := New()
	r.SetClock(func() int64 { return now })
	now = 1000
	sp := r.Start("boot", "dev1")
	now = 4000
	sp.End()
	r.SpanAt("phase", "network-ready", 0, 4000)
	r.Event("device", "crash", Attr{"dev", "dev1"})
	r.Counter("bgp.msgs_out", "dev1").Add(7)
	r.Counter("bgp.msgs_out", "dev0").Add(3)
	r.Gauge("vms", "").Set(2)
	r.Histogram("recovery", "").Observe(0.01)
	return r
}

func TestExportDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-content JSON exports differ")
	}
	a.Reset()
	b.Reset()
	if err := buildSample().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-content Chrome exports differ")
	}
}

func TestChromeTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Part{Name: "runA", Rec: buildSample()}, Part{Name: "runB", Rec: buildSample()}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	sawComplete, sawInstant, sawMeta := false, false, false
	for _, ev := range out.TraceEvents {
		pids[ev["pid"].(float64)] = true
		switch ev["ph"] {
		case "X":
			sawComplete = true
			if ev["name"] == "dev1" && ev["dur"].(float64) != 3 { // 3000ns = 3µs
				t.Fatalf("span dur = %v µs, want 3", ev["dur"])
			}
		case "i":
			sawInstant = true
		case "M":
			sawMeta = true
		}
	}
	if !sawComplete || !sawInstant || !sawMeta {
		t.Fatalf("missing phases: X=%v i=%v M=%v", sawComplete, sawInstant, sawMeta)
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("merged trace pids = %v, want 1 and 2", pids)
	}
}

func TestForkDeepCopies(t *testing.T) {
	r := buildSample()
	f := r.Fork()
	if f.now != nil {
		t.Fatal("fork inherited a clock")
	}
	// Same (name, label), distinct handles, equal starting values.
	pc, fc := r.Counter("bgp.msgs_out", "dev1"), f.Counter("bgp.msgs_out", "dev1")
	pg, fg := r.Gauge("vms", ""), f.Gauge("vms", "")
	ph, fh := r.Histogram("recovery", ""), f.Histogram("recovery", "")
	if pc == fc || pg == fg || ph == fh || r.Metrics() == f.Metrics() {
		t.Fatal("fork shares a handle or the registry with its parent")
	}
	if fc.Value() != 7 || fg.Value() != 2 || fh.Count() != 1 || fh.Sum() != 0.01 {
		t.Fatalf("fork lost the parent baseline: counter %d, gauge %g, hist n=%d sum=%g",
			fc.Value(), fg.Value(), fh.Count(), fh.Sum())
	}
	// Diverge both sides; neither should see the other's writes.
	pc.Inc()
	fc.Add(10)
	if pc.Value() != 8 || fc.Value() != 17 {
		t.Fatalf("counters did not diverge independently: parent %d, fork %d", pc.Value(), fc.Value())
	}
	pg.Set(5)
	fg.Add(1)
	if pg.Value() != 5 || fg.Value() != 3 {
		t.Fatalf("gauges did not diverge independently: parent %g, fork %g", pg.Value(), fg.Value())
	}
	fh.Observe(1) // 0.256 < 1 <= 1.024: a bucket the parent never touched
	ph.ObserveN(500, 2)
	pst, fst := ph.state(), fh.state()
	if pst.count != 3 || pst.bucket[5] != 0 || pst.bucket[len(pst.bucket)-1] != 2 {
		t.Fatalf("parent histogram saw the fork's observation: %+v", pst)
	}
	if fst.count != 2 || fst.bucket[5] != 1 || fst.bucket[len(fst.bucket)-1] != 0 || fst.max != 1 {
		t.Fatalf("fork histogram saw the parent's observations: %+v", fst)
	}
	r.SpanAt("t", "parent-only", 1, 2)
	if len(f.Spans()) != len(r.Spans())-1 {
		t.Fatal("fork shares span slice with parent")
	}
}

// TestRecorderHandlesAreConcurrencySafe hammers one handle of each kind,
// vended by a recorder's registry, from several goroutines: the emulation
// and the daemon use the same types, so the totals must be exact here too.
// Meaningful under -race (scripts/check.sh).
func TestRecorderHandlesAreConcurrencySafe(t *testing.T) {
	reg := New().Metrics()
	c, g, h := reg.Counter("c", ""), reg.Gauge("g", ""), reg.Histogram("h", "")
	const workers, rounds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Add(3)
				g.Add(0.5)
				h.ObserveN(0.002, 4)
				// Lookups race with updates in crystald; same handle each time.
				if reg.Counter("c", "") != c {
					t.Error("registry vended a second handle for the same key")
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 3*workers*rounds {
		t.Errorf("counter = %d, want %d", got, 3*workers*rounds)
	}
	if got := g.Value(); got != 0.5*workers*rounds {
		t.Errorf("gauge = %g, want %g", got, 0.5*workers*rounds)
	}
	if st := h.state(); st.count != 4*workers*rounds || st.bucket[1] != st.count {
		t.Errorf("histogram count = %d (bucket[1] = %d), want %d in the 4ms bucket", st.count, st.bucket[1], 4*workers*rounds)
	}
}

func TestAdopt(t *testing.T) {
	src := buildSample()
	dst := New()
	bound := false
	dst.SetClock(func() int64 { bound = true; return 42 })
	dst.Adopt(src)
	if len(dst.Spans()) != 2 {
		t.Fatalf("adopt lost spans: %d", len(dst.Spans()))
	}
	if dst.Counter("bgp.msgs_out", "dev1").Value() != 7 {
		t.Fatal("adopt lost counters")
	}
	// src had a clock; it wins (src's engine keeps driving dst).
	dst.Event("t", "after-adopt")
	_ = bound
	// Nil safety.
	dst.Adopt(nil)
	var nilRec *Recorder
	nilRec.Adopt(src)
}

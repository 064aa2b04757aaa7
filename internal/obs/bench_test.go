package obs

import "testing"

// The disabled-tracer contract: a nil recorder (and the nil handles it
// vends) must cost a predictable branch and zero allocations, so wiring
// observability through the BGP/forwarding hot paths leaves the untraced
// benchmark numbers (bench/baseline.json) untouched when tracing is off.

func BenchmarkNilCounterInc(b *testing.B) {
	var r *Recorder
	c := r.Counter("bgp.msgs_out", "dev0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilSpan(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Start("track", "name")
		sp.End()
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var r *Recorder
	h := r.Histogram("recovery", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.5)
	}
}

func BenchmarkNilGaugeSet(b *testing.B) {
	var r *Recorder
	g := r.Gauge("rib.dense_bytes", "dev0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkLiveCounterInc(b *testing.B) {
	r := New()
	c := r.Counter("bgp.msgs_out", "dev0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkLiveGaugeSet(b *testing.B) {
	r := New()
	g := r.Gauge("rib.dense_bytes", "dev0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkLiveHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("recovery", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 97))
	}
}

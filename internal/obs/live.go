package obs

// Live is the wall-clock sibling of the Recorder's sim-time metrics: a
// concurrency-safe registry the serving layer (internal/serve) uses for
// operational telemetry — request counts, latencies, pool hit rates. The
// Recorder is deliberately single-goroutine and driven by the simulation
// clock; a daemon needs the opposite: many HTTP handler goroutines
// recording real elapsed time. Keeping the two separate preserves the
// determinism contract (Live never touches a report or a trace) while
// giving /metrics something true about the process.
//
// Like the Recorder's handles, a nil *Live vends nil series handles whose
// methods are no-ops, so instrumented code never branches on "is
// monitoring on".

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Live is a mutex-guarded metrics registry for wall-clock telemetry.
type Live struct {
	mu       sync.Mutex
	counters map[metricKey]*LiveCounter
	gauges   map[metricKey]*LiveGauge
	hists    map[metricKey]*LiveHistogram
	order    []string // registration order of unique names, for stable output
	named    map[string]bool
}

// NewLive returns an empty live-metrics registry.
func NewLive() *Live { return &Live{} }

func (l *Live) noteName(name string) {
	if l.named == nil {
		l.named = map[string]bool{}
	}
	if !l.named[name] {
		l.named[name] = true
		l.order = append(l.order, name)
	}
}

// LiveCounter is a monotonically increasing counter safe for concurrent
// use. A nil handle absorbs updates.
type LiveCounter struct {
	name, label string
	mu          sync.Mutex
	n           uint64
}

// Inc adds one.
func (c *LiveCounter) Inc() { c.Add(1) }

// Add adds d.
func (c *LiveCounter) Add(d uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n += d
	c.mu.Unlock()
}

// Value returns the current count (0 on a nil counter).
func (c *LiveCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Counter returns the counter registered under (name, label), creating it
// on first use. Nil registry → nil handle, a valid no-op.
func (l *Live) Counter(name, label string) *LiveCounter {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := metricKey{name, label}
	if c, ok := l.counters[k]; ok {
		return c
	}
	if l.counters == nil {
		l.counters = map[metricKey]*LiveCounter{}
	}
	c := &LiveCounter{name: name, label: label}
	l.counters[k] = c
	l.noteName(name)
	return c
}

// LiveGauge is a last-write-wins value safe for concurrent use, with an
// Add method so it can track in-flight counts.
type LiveGauge struct {
	name, label string
	mu          sync.Mutex
	v           float64
}

// Set records the current value.
func (g *LiveGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the value by d (negative to decrement).
func (g *LiveGauge) Add(d float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the last value (0 on a nil gauge).
func (g *LiveGauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Gauge returns the gauge registered under (name, label), creating it on
// first use.
func (l *Live) Gauge(name, label string) *LiveGauge {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := metricKey{name, label}
	if g, ok := l.gauges[k]; ok {
		return g
	}
	if l.gauges == nil {
		l.gauges = map[metricKey]*LiveGauge{}
	}
	g := &LiveGauge{name: name, label: label}
	l.gauges[k] = g
	l.noteName(name)
	return g
}

// liveBuckets are the default wall-clock latency bounds, in seconds:
// 1ms to ~66s in powers of four. Rehearsal requests span warm forks
// (tens of ms) to cold convergences (seconds).
var liveBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

// LiveHistogram accumulates observations into fixed buckets, safe for
// concurrent use, with quantile estimation for status reporting.
type LiveHistogram struct {
	name, label string
	bounds      []float64
	mu          sync.Mutex
	bucket      []uint64 // len(bounds)+1; last is +Inf
	count       uint64
	sum         float64
	min, max    float64
}

// Observe records one value.
func (h *LiveHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.bucket[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *LiveHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation within the bucket holding the target rank, clamped to the
// observed min/max so small samples don't report a bucket bound nothing
// reached. Returns 0 with no observations.
func (h *LiveHistogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var seen uint64
	for i, n := range h.bucket {
		seen += n
		if float64(seen) < rank {
			continue
		}
		// Interpolate inside bucket i: [lo, hi] holds n observations of
		// which the target is the (rank - (seen - n))-th.
		lo := h.min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		v := hi
		if n > 0 {
			within := (rank - float64(seen-n)) / float64(n)
			v = lo + (hi-lo)*within
		}
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// Histogram returns the histogram registered under (name, label) with the
// default wall-clock bounds, creating it on first use.
func (l *Live) Histogram(name, label string) *LiveHistogram {
	return l.HistogramWith(name, label, liveBuckets)
}

// HistogramWith is Histogram for a series that is not a latency: bounds are
// its ascending bucket bounds, in the series' own unit. They take effect
// when the series is first registered; later calls return that series
// whatever bounds they pass.
func (l *Live) HistogramWith(name, label string, bounds []float64) *LiveHistogram {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := metricKey{name, label}
	if h, ok := l.hists[k]; ok {
		return h
	}
	if l.hists == nil {
		l.hists = map[metricKey]*LiveHistogram{}
	}
	h := &LiveHistogram{
		name: name, label: label,
		bounds: bounds, bucket: make([]uint64, len(bounds)+1),
	}
	l.hists[k] = h
	l.noteName(name)
	return h
}

// promName sanitizes a dotted series name into the Prometheus exposition
// charset ("http.requests" → "http_requests").
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}

func promLabel(label, extra string) string {
	parts := make([]string, 0, 2)
	if label != "" {
		parts = append(parts, fmt.Sprintf("label=%q", label))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteProm renders every registered series in the Prometheus text
// exposition format, series sorted by (name, label) within registration
// order of names, so scrapes are stable.
func (l *Live) WriteProm(w io.Writer) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	type cRow struct {
		label string
		c     *LiveCounter
	}
	type gRow struct {
		label string
		g     *LiveGauge
	}
	type hRow struct {
		label string
		h     *LiveHistogram
	}
	counters := map[string][]cRow{}
	gauges := map[string][]gRow{}
	hists := map[string][]hRow{}
	for k, c := range l.counters {
		counters[k.name] = append(counters[k.name], cRow{k.label, c})
	}
	for k, g := range l.gauges {
		gauges[k.name] = append(gauges[k.name], gRow{k.label, g})
	}
	for k, h := range l.hists {
		hists[k.name] = append(hists[k.name], hRow{k.label, h})
	}
	order := append([]string(nil), l.order...)
	l.mu.Unlock()

	for _, name := range order {
		pn := promName(name)
		if rows := counters[name]; len(rows) > 0 {
			sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", pn); err != nil {
				return err
			}
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%s%s %d\n", pn, promLabel(r.label, ""), r.c.Value()); err != nil {
					return err
				}
			}
		}
		if rows := gauges[name]; len(rows) > 0 {
			sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", pn); err != nil {
				return err
			}
			for _, r := range rows {
				if _, err := fmt.Fprintf(w, "%s%s %g\n", pn, promLabel(r.label, ""), r.g.Value()); err != nil {
					return err
				}
			}
		}
		if rows := hists[name]; len(rows) > 0 {
			sort.Slice(rows, func(i, j int) bool { return rows[i].label < rows[j].label })
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
				return err
			}
			for _, r := range rows {
				r.h.mu.Lock()
				var cum uint64
				for i, n := range r.h.bucket {
					cum += n
					le := "+Inf"
					if i < len(r.h.bounds) {
						le = fmt.Sprintf("%g", r.h.bounds[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						pn, promLabel(r.label, fmt.Sprintf("le=%q", le)), cum); err != nil {
						r.h.mu.Unlock()
						return err
					}
				}
				sum, count := r.h.sum, r.h.count
				r.h.mu.Unlock()
				if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
					pn, promLabel(r.label, ""), sum, pn, promLabel(r.label, ""), count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Since returns elapsed wall-clock seconds — the unit every Live
// histogram observes in.
func Since(start time.Time) float64 { return time.Since(start).Seconds() }

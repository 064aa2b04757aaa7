package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics are registered per (name, label): the name identifies the
// series ("bgp.msgs_out"), the label the instance (a device name, a
// route). Handles are cached by callers at construction time so hot-path
// updates never touch the registry — and cost literally one nil check
// when monitoring is off, because a nil registry vends nil handles.
//
// There is one set of series types and one registry type. Every handle is
// safe for concurrent use, so the same types serve the single-goroutine
// emulation (through its Recorder) and crystald's HTTP handlers. What keeps
// reports and traces deterministic is that the two never share a Registry
// instance: a Recorder's registry only ever sees virtual-time values from
// its own emulation, the daemon's only wall-clock ones.

// Counter is a monotonically increasing integer series. A nil *Counter —
// vended by a nil registry — absorbs updates for free.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-write-wins float series, with an Add method so it can
// track in-flight counts.
type Gauge struct{ bits atomic.Uint64 } // math.Float64bits of the value

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the value by d (negative to decrement).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the last value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are a Recorder's histogram bounds, in seconds of virtual
// time: 1ms to ~2min in powers of four. They cover the spread between a
// single BGP UPDATE exchange and a full fabric convergence.
var DefBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536, 131.072}

// WallBuckets are the daemon's wall-clock latency bounds, in seconds: 1ms
// to ~66s in powers of four. Rehearsal requests span warm forks (tens of
// ms) to cold convergences (seconds).
var WallBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

// Histogram accumulates observations into fixed buckets, plus exact
// count/sum/min/max. Bounds are set at registration and never change, so
// two same-seed runs bucket identically.
type Histogram struct {
	mu sync.Mutex
	histState
}

// histState is a histogram's content; state() hands out consistent copies.
type histState struct {
	bounds []float64
	bucket []uint64 // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.observe(v, 1)
	}
}

// ObserveN records n identical observations in one update — the bulk form
// the traffic plane uses to account millions of modeled flows per settle
// without a per-flow loop. Equivalent to calling Observe(v) n times.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h != nil && n != 0 {
		h.observe(v, n)
	}
}

// observe is the locked update behind Observe and ObserveN. Both check
// for nil themselves, so a disabled handle costs one inlined branch and
// no call.
func (h *Histogram) observe(v float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.bucket[i] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * float64(n)
}

// state returns a consistent copy of the histogram's content.
func (h *Histogram) state() histState {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.histState
	s.bucket = append([]uint64(nil), s.bucket...)
	return s
}

// kind orders a name's series in every export: counters, then gauges,
// then histograms.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

type seriesKey struct {
	name  string
	kind  kind
	label string
}

// series is one registered handle with the key it was registered under.
type series struct {
	seriesKey
	seq    int // registration index
	handle any // *Counter, *Gauge or *Histogram, per kind
}

// Registry vends and indexes metric handles. It is safe for concurrent
// use; a nil *Registry vends nil handles whose methods are no-ops, so
// instrumented code never branches on "is monitoring on".
type Registry struct {
	bounds []float64 // what Histogram registers with

	mu  sync.Mutex
	idx map[seriesKey]any
	all []series // registration order
}

// NewRegistry returns an empty registry whose Histogram method registers
// series with the given ascending bucket bounds.
func NewRegistry(bounds []float64) *Registry {
	return &Registry{bounds: bounds, idx: map[seriesKey]any{}}
}

// add registers handle under k. Caller holds r.mu.
func (r *Registry) add(k seriesKey, handle any) {
	r.idx[k] = handle
	r.all = append(r.all, series{seriesKey: k, seq: len(r.all), handle: handle})
}

// Counter returns the counter registered under (name, label), creating it
// on first use. On a nil registry it returns nil, which is itself a valid
// no-op counter.
func (r *Registry) Counter(name, label string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := seriesKey{name, counterKind, label}
	c, _ := r.idx[k].(*Counter)
	if c == nil {
		c = &Counter{}
		r.add(k, c)
	}
	return c
}

// Gauge returns the gauge registered under (name, label), creating it on
// first use. Nil registry → nil gauge, a valid no-op.
func (r *Registry) Gauge(name, label string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := seriesKey{name, gaugeKind, label}
	g, _ := r.idx[k].(*Gauge)
	if g == nil {
		g = &Gauge{}
		r.add(k, g)
	}
	return g
}

// Histogram returns the histogram registered under (name, label) with the
// registry's bounds, creating it on first use. Nil registry → nil
// histogram, a valid no-op.
func (r *Registry) Histogram(name, label string) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramWith(name, label, r.bounds)
}

// HistogramWith is Histogram for a series that is not a latency: bounds are
// its ascending bucket bounds, in the series' own unit. They take effect
// when the series is first registered; later calls return that series
// whatever bounds they pass.
func (r *Registry) HistogramWith(name, label string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := seriesKey{name, histogramKind, label}
	h, _ := r.idx[k].(*Histogram)
	if h == nil {
		h = &Histogram{histState: histState{bounds: bounds, bucket: make([]uint64, len(bounds)+1)}}
		r.add(k, h)
	}
	return h
}

// sorted returns the registered series ordered by name, then kind, then
// label — so each kind reads in (name, label) order. Every exporter
// starts from this view. Nil-safe.
func (r *Registry) sorted() []series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	view := append([]series(nil), r.all...)
	r.mu.Unlock()
	sort.Slice(view, func(i, j int) bool {
		a, b := view[i].seriesKey, view[j].seriesKey
		if a.name != b.name {
			return a.name < b.name
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.label < b.label
	})
	return view
}

// clone returns a registry holding a private copy of every series at its
// current value, in the same registration order. Nil-safe.
func (r *Registry) clone() *Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Registry{bounds: r.bounds, idx: make(map[seriesKey]any, len(r.all)), all: make([]series, 0, len(r.all))}
	for _, s := range r.all {
		switch h := s.handle.(type) {
		case *Counter:
			dup := &Counter{}
			dup.n.Store(h.Value())
			c.add(s.seriesKey, dup)
		case *Gauge:
			dup := &Gauge{}
			dup.bits.Store(h.bits.Load())
			c.add(s.seriesKey, dup)
		case *Histogram:
			c.add(s.seriesKey, &Histogram{histState: h.state()})
		}
	}
	return c
}

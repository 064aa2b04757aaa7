package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Exporters. The Recorder's three outputs are deterministic: spans and
// events are emitted in their (deterministic) record order, metrics come
// from the registry's one sorted view, and maps never reach the encoder
// unsorted — so two same-seed runs produce byte-identical files. The
// Prometheus exposition starts from the same view.

type counterJSON struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value uint64 `json:"value"`
}

type gaugeJSON struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
}

type histBucketJSON struct {
	LE string `json:"le"`
	N  uint64 `json:"n"`
}

type histJSON struct {
	Name    string           `json:"name"`
	Label   string           `json:"label,omitempty"`
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Buckets []histBucketJSON `json:"buckets"`
}

type traceJSON struct {
	Spans      []SpanData    `json:"spans"`
	Events     []EventData   `json:"events,omitempty"`
	Counters   []counterJSON `json:"counters,omitempty"`
	Gauges     []gaugeJSON   `json:"gauges,omitempty"`
	Histograms []histJSON    `json:"histograms,omitempty"`
}

// le renders bucket i's upper bound the way every exporter prints it.
func (s *histState) le(i int) string {
	if i < len(s.bounds) {
		return fmt.Sprintf("%g", s.bounds[i])
	}
	return "+Inf"
}

// WriteJSON writes the native trace file: spans and events in record
// order, metrics sorted by (name, label). Schema documented in
// docs/OBSERVABILITY.md.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"spans\":[]}\n")
		return err
	}
	out := traceJSON{Spans: r.spans, Events: r.events}
	if out.Spans == nil {
		out.Spans = []SpanData{}
	}
	for _, s := range r.reg.sorted() {
		switch h := s.handle.(type) {
		case *Counter:
			out.Counters = append(out.Counters, counterJSON{s.name, s.label, h.Value()})
		case *Gauge:
			out.Gauges = append(out.Gauges, gaugeJSON{s.name, s.label, h.Value()})
		case *Histogram:
			st := h.state()
			hj := histJSON{Name: s.name, Label: s.label, Count: st.count, Sum: st.sum, Min: st.min, Max: st.max}
			for i, n := range st.bucket {
				hj.Buckets = append(hj.Buckets, histBucketJSON{st.le(i), n})
			}
			out.Histograms = append(out.Histograms, hj)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Part names one recorder inside a merged Chrome trace; each part becomes
// a Perfetto "process" so multi-run campaigns view side by side.
type Part struct {
	Name string
	Rec  *Recorder
}

type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes this recorder as a Chrome trace_event file that
// opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChrome(w, Part{Name: "run", Rec: r})
}

// WriteChrome merges one or more recorders into a single Chrome
// trace_event file: each part is a process (pid = position, in order),
// each track within it a named thread. Timestamps are virtual
// microseconds. Nil recorders contribute only their process banner, so a
// campaign with tracing half-enabled still lines pids up with run order.
func WriteChrome(w io.Writer, parts ...Part) error {
	out := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for pi, part := range parts {
		pid := pi + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": part.Name},
		})
		r := part.Rec
		if r == nil {
			continue
		}
		// Tracks map to tids in sorted-name order so the mapping does not
		// depend on which track happened to record first.
		trackSet := map[string]bool{}
		for i := range r.spans {
			trackSet[r.spans[i].Track] = true
		}
		for i := range r.events {
			trackSet[r.events[i].Track] = true
		}
		tracks := make([]string, 0, len(trackSet))
		for t := range trackSet {
			tracks = append(tracks, t)
		}
		sort.Strings(tracks)
		tid := map[string]int{}
		for i, t := range tracks {
			tid[t] = i + 1
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: i + 1,
				Args: map[string]string{"name": t},
			})
		}
		for i := range r.spans {
			sp := &r.spans[i]
			dur := float64(sp.End-sp.Start) / 1e3
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sp.Name, Cat: sp.Track, Ph: "X",
				TS: float64(sp.Start) / 1e3, Dur: &dur,
				PID: pid, TID: tid[sp.Track], Args: attrMap(sp.Attrs),
			})
		}
		for i := range r.events {
			ev := &r.events[i]
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: ev.Name, Cat: ev.Track, Ph: "i",
				TS: float64(ev.At) / 1e3, S: "t",
				PID: pid, TID: tid[ev.Track], Args: attrMap(ev.Attrs),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.K] = a.V
	}
	return m
}

// Summary renders a human-readable rollup: the phase timeline, per-track
// span statistics with the slowest instances, counter totals grouped by
// series name, and histogram digests. Deterministic like the file
// exporters.
func (r *Recorder) Summary() string {
	if r == nil {
		return "trace: disabled (nil recorder)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d spans, %d events (virtual time)\n", len(r.spans), len(r.events))

	// Phase timeline, in record order (phases record in lifecycle order).
	var phases []SpanData
	byTrack := map[string][]SpanData{}
	for _, sp := range r.spans {
		if sp.Track == "phase" {
			phases = append(phases, sp)
		} else {
			byTrack[sp.Track] = append(byTrack[sp.Track], sp)
		}
	}
	if len(phases) > 0 {
		b.WriteString("phases:\n")
		for _, sp := range phases {
			fmt.Fprintf(&b, "  %-16s %12s  (at %s)\n", sp.Name,
				time.Duration(sp.End-sp.Start).Round(time.Millisecond),
				time.Duration(sp.Start).Round(time.Millisecond))
		}
	}

	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	for _, t := range tracks {
		spans := byTrack[t]
		var sum, max int64
		min := spans[0].End - spans[0].Start
		for _, sp := range spans {
			d := sp.End - sp.Start
			sum += d
			if d > max {
				max = d
			}
			if d < min {
				min = d
			}
		}
		fmt.Fprintf(&b, "%s: %d spans, min %s avg %s max %s\n", t, len(spans),
			time.Duration(min).Round(time.Millisecond),
			time.Duration(sum/int64(len(spans))).Round(time.Millisecond),
			time.Duration(max).Round(time.Millisecond))
		slow := append([]SpanData(nil), spans...)
		sort.SliceStable(slow, func(i, j int) bool {
			return slow[i].End-slow[i].Start > slow[j].End-slow[j].Start
		})
		n := len(slow)
		if n > 5 {
			n = 5
		}
		for _, sp := range slow[:n] {
			fmt.Fprintf(&b, "  slowest  %-24s %12s\n", sp.Name,
				time.Duration(sp.End-sp.Start).Round(time.Millisecond))
		}
	}

	// Counter totals grouped by series name, labels counted. The view is
	// sorted by name, so a name's counters are adjacent.
	view := r.reg.sorted()
	type total struct {
		name   string
		n      uint64
		labels int
	}
	var totals []total
	for _, s := range view {
		c, ok := s.handle.(*Counter)
		if !ok {
			continue
		}
		if k := len(totals); k == 0 || totals[k-1].name != s.name {
			totals = append(totals, total{name: s.name})
		}
		t := &totals[len(totals)-1]
		t.n += c.Value()
		t.labels++
	}
	if len(totals) > 0 {
		b.WriteString("counters:\n")
		for _, t := range totals {
			fmt.Fprintf(&b, "  %-28s %12d  (%d labels)\n", t.name, t.n, t.labels)
		}
	}
	for _, s := range view {
		if g, ok := s.handle.(*Gauge); ok {
			fmt.Fprintf(&b, "gauge %s{%s} = %g\n", s.name, s.label, g.Value())
		}
	}
	for _, s := range view {
		h, ok := s.handle.(*Histogram)
		if !ok {
			continue
		}
		if st := h.state(); st.count > 0 {
			fmt.Fprintf(&b, "hist %s{%s}: n=%d avg=%.3fs min=%.3fs max=%.3fs\n",
				s.name, s.label, st.count, st.sum/float64(st.count), st.min, st.max)
		}
	}
	return b.String()
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
// exposition format: names in the order they were first registered, each
// name's series by kind and then label, so scrapes are stable.
func (r *Registry) WriteProm(w io.Writer) error {
	view := r.sorted()
	first := map[string]int{} // name → lowest registration index
	for _, s := range view {
		if seq, ok := first[s.name]; !ok || s.seq < seq {
			first[s.name] = s.seq
		}
	}
	sort.SliceStable(view, func(i, j int) bool { return first[view[i].name] < first[view[j].name] })

	var b bytes.Buffer
	for i, s := range view {
		pn := promName(s.name)
		if i == 0 || view[i-1].name != s.name || view[i-1].kind != s.kind {
			fmt.Fprintf(&b, "# TYPE %s %s\n", pn, [...]string{"counter", "gauge", "histogram"}[s.kind])
		}
		switch h := s.handle.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %d\n", pn, promLabel(s.label, ""), h.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %g\n", pn, promLabel(s.label, ""), h.Value())
		case *Histogram:
			st := h.state()
			var cum uint64
			for bi, n := range st.bucket {
				cum += n
				fmt.Fprintf(&b, "%s_bucket%s %d\n", pn, promLabel(s.label, fmt.Sprintf("le=%q", st.le(bi))), cum)
			}
			fmt.Fprintf(&b, "%s_sum%s %g\n%s_count%s %d\n",
				pn, promLabel(s.label, ""), st.sum, pn, promLabel(s.label, ""), st.count)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

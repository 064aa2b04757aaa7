package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the benchmark wraps the layer's public function, so a span costs two clock
// reads and an append and the program under test carries no hooks.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // spans of one request or mockup share an op id
	Name   string `json:"name"`
	// Start and End are host (wall-clock) nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the traced pass ends; it is written
// out once, by writeTrace. A nil tracer records nothing, which is how the
// untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span ids
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts a new operation: spans opened until the next beginOp share
// its id.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// do times fn as a child of whatever span is open.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, id)
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Children are merged as intervals first, so two
// overlapping children are not subtracted twice.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id-1]
	var kids []span
	for _, s := range spans {
		if s.Parent == id {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, p.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return p.dur() - time.Duration(covered)
}

// stageSums adds up, per span name, the durations of the direct children of
// every span called parentName, and returns the parents' total duration and
// the remainder no child accounts for. parts + unattributed == total by
// construction: the remainder is reported, never hidden.
func stageSums(spans []span, parentName string) (parts map[string]time.Duration, total, unattributed time.Duration) {
	parts = map[string]time.Duration{}
	for _, p := range spans {
		if p.Name != parentName {
			continue
		}
		total += p.dur()
		unattributed += selfTime(spans, p.ID)
		for _, k := range spans {
			if k.Parent == p.ID {
				parts[k.Name] += k.dur()
			}
		}
	}
	return parts, total, unattributed
}

package traffic

import (
	"fmt"
	"slices"
	"sync"

	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

// memo is what lets a settle walk only the aggregates a change moved
// (DESIGN.md §11). It holds the fabric index the last settle saw and, per
// device of it, the rib.Mark of the table it read; per aggregate (in the
// aggregate itself, as spans of the two arenas here) the devices its last
// walk consulted and the latency observations it made.
//
// The staleness rule: an aggregate's last result stands unless a device it
// consulted has a table that cannot account for what changed since its mark
// (rib.FIB.Since: another lineage, a device that went down or came up, writes
// the table did not log) or wrote more than maxScannedWrites times, or
// logged a write to a prefix containing the aggregate's destination — which
// a settle answers from one bitset per device over the matrix's destinations
// (changes.cover). A
// different index pointer — some config pointer or the device set changed
// (config.Index.Same) — discards the memo whole. The rule is exact, not a
// heuristic, because of four facts held elsewhere: installed FIB entries are
// immutable (so an unwritten slot still holds the same route), installed
// configs are immutable (so pointer equality is content equality), a
// device's forwarder — ACL bindings, local addresses — is rebuilt from its
// config together with a fresh table on every boot (so the table's lineage
// stands for all of it), and a fork's clone of a table is that table
// continued (so a forked memo reads the fork's tables as what it saw, plus
// what the fork wrote). A walk is a pure function of what it reads,
// everything it reads of a device it reads after consulting it, so unchanged
// consulted devices mean the same walk, which consults the same devices.
//
// Everything here follows the repo's write rule (DESIGN.md §6): the index is
// immutable, marks is replaced by each settle, arena records by appending a
// successor — nothing a fork may share is edited.
type memo struct {
	ix    *config.Index
	marks []rib.Mark // by the index's device id, as consulted-device ids are

	consulted arena[uint32]
	latency   arena[latObs]

	walked, reused uint64
}

// latObs is one traffic.flow_latency observation of a walk: flows flows
// delivered hop hops from their ingress device.
type latObs struct {
	hop   uint32
	flows uint64
}

// changes is what moved between the previous settle and this one, per device
// id: stale devices invalidate every aggregate that consulted them, writes
// only those whose destination a written prefix contains. written holds the
// latter as one bitset per device over the matrix's destinations (dsts),
// words words each.
type changes struct {
	stale   []bool
	written []uint64
	words   int
}

// cover marks in device id's bitset every destination a prefix of writes
// contains: dsts is sorted, so each prefix's destinations are one run, found
// with one binary search.
func (ch *changes) cover(id int, writes []netpkt.Prefix, dsts []netpkt.IP) {
	set := ch.written[id*ch.words : (id+1)*ch.words]
	for _, p := range writes {
		j, _ := slices.BinarySearch(dsts, p.Addr&p.MaskIP())
		for ; j < len(dsts) && p.Contains(dsts[j]); j++ {
			set[j>>6] |= 1 << (j & 63)
		}
	}
}

// maxScannedWrites is the longest write list moved will match destinations
// against. A device that wrote more — a session reset reprograms a table's
// worth of prefixes — is stale instead: every aggregate that consulted it is
// walked, which costs no more than the full settle and keeps the check on the
// aggregates that are reused a small fraction of a walk.
const maxScannedWrites = 64

// observe brings the device marks up to date with v and reports what
// changed on the way; it resolves every device's forwarder and config into
// log, once per settle, for the walks to read by id. When nothing recorded
// can survive — first settle, a config or device-set change, or every table
// stale — the memo is discarded up front instead of being superseded record
// by record.
func (m *Matrix) observe(v View, log *walkLog) changes {
	fresh := v.Index != m.ix
	if fresh {
		// Device ids change with the index: nothing recorded under the old
		// ones survives (discard, below).
		m.ix, m.marks = v.Index, make([]rib.Mark, v.Index.Len())
	}
	n := len(m.marks)
	ch := changes{stale: make([]bool, n), words: (len(m.dsts) + 63) / 64}
	ch.written = make([]uint64, n*ch.words)
	log.fwds, log.cfgs = slices.Grow(log.fwds[:0], n)[:n], slices.Grow(log.cfgs[:0], n)[:n]
	// A fork shares the marks it was forked with: replace, never edit.
	marks := make([]rib.Mark, n)
	survivors := false
	for i, was := range m.marks {
		name := m.ix.Name(i)
		var fib *rib.FIB
		log.fwds[i], log.cfgs[i] = v.Forwarder(name), m.ix.Config(name)
		if log.fwds[i] != nil {
			fib = log.fwds[i].FIB()
		}
		w, ok := fib.Since(was)
		ch.stale[i] = !ok || len(w) > maxScannedWrites
		if !ch.stale[i] {
			survivors = true
			ch.cover(i, w, m.dsts)
		}
		marks[i] = fib.Mark()
	}
	m.marks = marks
	if fresh || !survivors {
		m.discard()
	}
	return ch
}

// discard forgets what every aggregate's last walk read, so the next settle
// walks them all (moved), and starts the arenas over.
func (m *Matrix) discard() {
	m.consulted, m.latency = arena[uint32]{}, arena[latObs]{}
	st := m.states.private()
	for i := range st {
		st[i].consulted, st[i].latency = span{}, span{}
	}
}

// moved reports whether a, whose state is s, has to be walked again: it
// never was, or ch touches something its last walk read.
func (m *memo) moved(a *aggregate, s *aggState, ch *changes) bool {
	if s.consulted.n == 0 {
		return true
	}
	w, bit := int(a.dst)>>6, uint64(1)<<(a.dst&63)
	for _, id := range m.consulted.get(s.consulted) {
		if ch.stale[id] || ch.written[int(id)*ch.words+w]&bit != 0 {
			return true
		}
	}
	return false
}

// crossCheck is the memo's oracle (-tags crystaldebug): walk a reused
// aggregate anyway and panic unless the walk reproduces what was kept.
func (m *Matrix) crossCheck(a *aggregate, s *aggState, v View, w *walkLog) {
	got := m.walk(a, v, w)
	if got != s.result || !slices.Equal(w.devs, m.consulted.get(s.consulted)) || !slices.Equal(w.lat, m.latency.get(s.latency)) {
		panic(fmt.Sprintf("traffic: memo kept a stale result for %s %s->%s class %d: kept %+v %v %v, walk gives %+v %v %v",
			a.src, a.srcIP, a.dstIP, a.class,
			s.result, m.consulted.get(s.consulted), m.latency.get(s.latency), got, w.devs, w.lat))
	}
}

// fork returns the memo of a forked matrix: the index, the marks and the
// arena records are shared (none is ever edited; the chunk lists are
// clipped, so each side's next chunk goes to a list of its own), the
// counters restart. The fork's clones continue the tables the marks were
// taken of, so the fork's first settle walks only what the fork's own steps
// moved.
func (m memo) fork() memo {
	m.consulted.chunks, m.latency.chunks = slices.Clip(m.consulted.chunks), slices.Clip(m.latency.chunks)
	m.walked, m.reused = 0, 0
	return m
}

// Walks returns how many aggregate-settles this matrix has walked and how
// many it reused from the memo since it was built or forked. It is an
// accessor, not a metric series: a fork reuses where a fresh run of the same
// spec walks, so the numbers must stay out of reports and traces.
func (m *Matrix) Walks() (walked, reused uint64) {
	if m == nil {
		return 0, 0
	}
	return m.walked, m.reused
}

// compact rebuilds the arenas from the records still in use once superseded
// ones outweigh them, so a long-lived matrix settling incrementally holds a
// bounded multiple of its live memo.
func (m *Matrix) compact() {
	if !m.consulted.slack() && !m.latency.slack() {
		return
	}
	var devs arena[uint32]
	var lat arena[latObs]
	st := m.states.private()
	for i := range st {
		s := &st[i]
		s.consulted = devs.put(span{}, m.consulted.get(s.consulted))
		s.latency = lat.put(span{}, m.latency.get(s.latency))
	}
	m.consulted, m.latency = devs, lat
}

// walkLog collects what one walk read, and holds what walks read and the
// buffers a settle works in. A settle takes one from logs and gives it back
// when done, so the buffers keep the size they grew to across settles and
// across forks: a fork's settle grows none of them again.
type walkLog struct {
	devs []uint32
	lat  []latObs

	// The forwarder (nil for a device that is down) and config of every
	// device of the index, by id, as this settle sees them (observe).
	fwds []*dataplane.Forwarder
	cfgs []*config.DeviceConfig

	frontier, next []node
	shares         []dataplane.FlowShare

	// What a settle puts in the matrix's arenas and states until it commits
	// them to storage of exactly their size (arena.commit, states.flush).
	putDevs []uint32
	putLat  []latObs
	added   []ownState
}

// logs holds the walkLogs no settle is using.
var logs = sync.Pool{New: func() any { return new(walkLog) }}

// consult notes that the walk is about to read device id.
func (l *walkLog) consult(id int) {
	if !slices.Contains(l.devs, uint32(id)) {
		l.devs = append(l.devs, uint32(id))
	}
}

// observe notes flows flows delivered hop hops from their ingress.
func (l *walkLog) observe(hop int, flows uint64) {
	l.lat = append(l.lat, latObs{hop: uint32(hop), flows: flows})
}

// arena stores the memo's variable-length records in chunks, addressed by
// span: one chunk per settle that put any, holding exactly what it put. A
// record is written once, by put, and superseded by putting its successor,
// never edited, and a chunk is never appended to once committed, so a matrix
// and its forks share chunks freely.
type arena[T any] struct {
	chunks [][]T
	settle []T // the records put since the last commit
	// size counts the records in chunks, live those a span still names.
	size, live int
}

// span addresses one record of an arena.
type span struct{ chunk, off, n uint32 }

// put appends rec as the successor of the record at old (the zero span for
// none) and returns where it went.
func (a *arena[T]) put(old span, rec []T) span {
	a.live += len(rec) - int(old.n)
	a.size += len(rec)
	off := len(a.settle)
	a.settle = append(a.settle, rec...)
	return span{chunk: uint32(len(a.chunks)), off: uint32(off), n: uint32(len(rec))}
}

// get returns the record at s: shared, read-only.
func (a *arena[T]) get(s span) []T {
	switch {
	case s.n == 0:
		return nil
	case int(s.chunk) == len(a.chunks):
		return a.settle[s.off : s.off+s.n]
	}
	return a.chunks[s.chunk][s.off : s.off+s.n]
}

// commit moves the records put since the last commit into a chunk of
// exactly their size, and returns the buffer they were put in, emptied.
func (a *arena[T]) commit() []T {
	if len(a.settle) > 0 {
		a.chunks = append(a.chunks, slices.Clone(a.settle))
	}
	buf := a.settle[:0]
	a.settle = nil
	return buf
}

// slack reports whether superseded records outweigh live ones.
func (a *arena[T]) slack() bool { return a.size > 2*a.live }

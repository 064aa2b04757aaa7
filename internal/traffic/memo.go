package traffic

import (
	"fmt"
	"slices"
	"unsafe"

	"crystalnet/internal/config"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

// memo is what lets a settle walk only the aggregates a change moved
// (DESIGN.md §11). It holds the fabric index the last settle saw and, per
// device of it, the table and the table's version; per aggregate (in the
// aggregate itself, as spans of the two arenas here) the devices its last
// walk consulted and the latency observations it made.
//
// The staleness rule: an aggregate's last result stands unless a device it
// consulted now has a different table object, has a table that cannot
// account for its writes since (rib.FIB.WritesSince) or wrote more than
// maxScannedWrites times, or logged a write to a prefix containing the
// aggregate's destination. A different index pointer — some config pointer
// or the device set changed (config.Index.Same) — discards the memo whole.
// The rule is exact, not a heuristic, because of three facts held elsewhere:
// installed FIB entries are immutable (so an unwritten slot still holds the
// same route), installed configs are immutable (so pointer equality is
// content equality), and a device's forwarder — ACL bindings, local addresses — is rebuilt from its config
// together with a fresh table on every boot (so the table pointer stands for
// all of it). A walk is a pure function of what it reads, everything it
// reads of a device it reads after consulting it, so unchanged consulted
// devices mean the same walk, which consults the same devices.
//
// Everything here follows the repo's write rule (DESIGN.md §6): the index is
// immutable, devs is replaced by each settle, arena records by appending a
// successor — nothing a fork may share is edited.
type memo struct {
	ix   *config.Index
	devs []devMemo // by the index's device id, as consulted-device ids are

	consulted arena[uint32]
	latency   arena[latObs]

	walked, reused uint64
}

// devMemo is what the last settle saw of one device.
type devMemo struct {
	fib     *rib.FIB // nil while the device is down
	version uint64
}

// latObs is one traffic.flow_latency observation of a walk: flows flows
// delivered hop hops from their ingress device.
type latObs struct {
	hop   uint32
	flows uint64
}

// changes is what moved between the previous settle and this one, per device
// id: stale devices invalidate every aggregate that consulted them, writes
// only those whose destination a written prefix contains.
type changes struct {
	stale  []bool
	writes [][]netpkt.Prefix
}

// maxScannedWrites is the longest write list moved will match destinations
// against. A device that wrote more — a session reset reprograms a table's
// worth of prefixes — is stale instead: every aggregate that consulted it is
// walked, which costs no more than the full settle and keeps the check on the
// aggregates that are reused a small fraction of a walk.
const maxScannedWrites = 64

// observe brings the device memo up to date with v and reports what changed
// on the way. When nothing recorded can survive — first settle, a config or
// device-set change, or every table stale, as in a run that never sealed
// its tables — the memo is discarded up front instead of being superseded
// record by record.
func (m *Matrix) observe(v View) changes {
	fresh := v.Index != m.ix
	if fresh {
		// Device ids change with the index: nothing recorded under the old
		// ones survives (discard, below).
		m.ix, m.devs = v.Index, make([]devMemo, v.Index.Len())
	}
	ch := changes{stale: make([]bool, len(m.devs)), writes: make([][]netpkt.Prefix, len(m.devs))}
	devs := make([]devMemo, len(m.devs))
	survivors := false
	for i, d := range m.devs {
		var fib *rib.FIB
		if fwd := v.Forwarder(m.ix.Name(i)); fwd != nil {
			fib = fwd.FIB()
		}
		switch {
		case fib != d.fib:
			ch.stale[i] = true
		case fib != nil:
			w, ok := fib.WritesSince(d.version)
			if ok && len(w) <= maxScannedWrites {
				ch.writes[i] = w
			} else {
				ch.stale[i] = true
			}
		}
		survivors = survivors || !ch.stale[i]
		d.fib, d.version = fib, 0
		if fib != nil {
			d.version = fib.Version()
		}
		devs[i] = d
	}
	m.devs = devs
	if fresh || !survivors {
		m.discard()
	}
	return ch
}

// discard forgets what every aggregate's last walk read, so the next settle
// walks them all (moved), and starts the arenas over.
func (m *Matrix) discard() {
	m.consulted, m.latency = arena[uint32]{}, arena[latObs]{}
	for i := range m.aggs {
		m.aggs[i].consulted, m.aggs[i].latency = span{}, span{}
	}
}

// moved reports whether a has to be walked again: it never was, or ch
// touches something its last walk read.
func (m *memo) moved(a *aggregate, ch changes) bool {
	if a.consulted.n == 0 {
		return true
	}
	for _, id := range m.consulted.get(a.consulted) {
		if ch.stale[id] {
			return true
		}
		for _, p := range ch.writes[id] {
			if p.Contains(a.dstIP) {
				return true
			}
		}
	}
	return false
}

// crossCheck is the memo's oracle (-tags crystaldebug): walk a reused
// aggregate anyway and panic unless the walk reproduces what was kept.
func (m *Matrix) crossCheck(a *aggregate, v View, w *walkLog) {
	got := m.walk(a, v, w)
	if got != a.result || !slices.Equal(w.devs, m.consulted.get(a.consulted)) || !slices.Equal(w.lat, m.latency.get(a.latency)) {
		panic(fmt.Sprintf("traffic: memo kept a stale result for %s %s->%s class %d: kept %+v %v %v, walk gives %+v %v %v",
			a.src, a.srcIP, a.dstIP, a.class,
			a.result, m.consulted.get(a.consulted), m.latency.get(a.latency), got, w.devs, w.lat))
	}
}

// fork returns the memo of a forked matrix: the index, the device memo and
// arena records are shared (none is ever edited), the counters restart.
func (m memo) fork() memo {
	m.consulted, m.latency = m.consulted.fork(), m.latency.fork()
	m.walked, m.reused = 0, 0
	return m
}

// Rebind moves a forked matrix's memo onto the fork's own tables, so that
// the fork's first settle walks only what the fork's steps wrote. tables
// returns a device's table in the parent emulation and its rib.FIB.Clone in
// the fork. A device is rebound only while the parent's table is the very
// one, at the very version, the memo saw; any other stays as it is and reads
// as stale at the next settle.
func (m *Matrix) Rebind(tables func(dev string) (parent, child *rib.FIB)) {
	if m == nil {
		return
	}
	devs := make([]devMemo, len(m.devs))
	for i, d := range m.devs {
		if p, c := tables(m.ix.Name(i)); p != nil && p == d.fib && p.Version() == d.version {
			d.fib = c
		}
		devs[i] = d
	}
	m.devs = devs
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

// MemoBytes returns the heap the memo holds beyond the aggregates' results:
// the per-aggregate spans, both arenas (superseded records included) and the
// device memo.
func (m *Matrix) MemoBytes() int {
	if m == nil {
		return 0
	}
	return len(m.aggs)*int(2*unsafe.Sizeof(span{})) +
		m.consulted.size*int(unsafe.Sizeof(uint32(0))) +
		m.latency.size*int(unsafe.Sizeof(latObs{})) +
		len(m.devs)*int(unsafe.Sizeof(devMemo{}))
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
	for i := range m.aggs {
		a := &m.aggs[i]
		a.consulted = devs.put(span{}, m.consulted.get(a.consulted))
		a.latency = lat.put(span{}, m.latency.get(a.latency))
	}
	m.consulted, m.latency = devs, lat
}

// walkLog collects what one walk read; Settle reuses one across walks.
type walkLog struct {
	devs []uint32
	lat  []latObs
}

// consult notes that the walk is about to read device dev. A name the index
// does not know has no state to go stale: it appears only by a device-set
// change, which is a new index and discards the memo.
func (l *walkLog) consult(ix *config.Index, dev string) {
	if id, ok := ix.ID(dev); ok && !slices.Contains(l.devs, uint32(id)) {
		l.devs = append(l.devs, uint32(id))
	}
}

// observe notes flows flows delivered hop hops from their ingress.
func (l *walkLog) observe(hop int, flows uint64) {
	l.lat = append(l.lat, latObs{hop: uint32(hop), flows: flows})
}

// arena stores the memo's variable-length records in append-only chunks,
// addressed by span. A record is written once, by put, and superseded by
// putting its successor, never edited, so a matrix and its forks share
// chunks freely; fork leaves the child no room in the chunks it shares, so a
// child never appends into a backing array its parent or a sibling can see.
type arena[T any] struct {
	chunks [][]T
	// size counts the records in chunks, live those a span still names.
	size, live int
}

// span addresses one record of an arena.
type span struct{ chunk, off, n uint32 }

// arenaChunk is the record capacity of one chunk: small enough that a fork
// which re-walks a handful of aggregates allocates little, large enough that
// the chunk list of a 300k-aggregate matrix stays in the hundreds.
const arenaChunk = 4096

// put appends rec as the successor of the record at old (the zero span for
// none) and returns where it went.
func (a *arena[T]) put(old span, rec []T) span {
	a.live += len(rec) - int(old.n)
	a.size += len(rec)
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+len(rec) > cap(a.chunks[last]) {
		a.chunks = append(a.chunks, make([]T, 0, max(arenaChunk, len(rec))))
		last++
	}
	off := len(a.chunks[last])
	a.chunks[last] = append(a.chunks[last], rec...)
	return span{chunk: uint32(last), off: uint32(off), n: uint32(len(rec))}
}

// get returns the record at s: shared, read-only.
func (a *arena[T]) get(s span) []T {
	if s.n == 0 {
		return nil
	}
	return a.chunks[s.chunk][s.off : s.off+s.n]
}

// fork returns an arena naming the same records whose appends go to chunks
// of its own.
func (a arena[T]) fork() arena[T] {
	a.chunks = slices.Clone(a.chunks)
	if last := len(a.chunks) - 1; last >= 0 {
		a.chunks[last] = slices.Clip(a.chunks[last])
	}
	return a
}

// slack reports whether superseded records outweigh live ones by more than
// a chunk.
func (a *arena[T]) slack() bool { return a.size > 2*a.live+arenaChunk }

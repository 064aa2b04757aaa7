package rib

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Process-wide accounting for every Dense table in the emulator. At M-DC
// scale the per-device Adj-RIB maps dominate the heap, so the scale work
// (DESIGN.md §10) replaces them with Dense tables and meters their footprint
// here: one atomic add per page allocated, no per-operation cost.
//
// The counter meters allocations; a page that is dropped (a discarded fork,
// a Clear of a table that did not own it) is reclaimed by the GC without
// being subtracted, so the figure is high-water pressure, not an exact
// live-heap figure.
var denseBytes atomic.Int64

// MemStats is a snapshot of the process-wide Dense accounting.
type MemStats struct {
	// DenseBytes is the total page bytes allocated by all Dense tables
	// (values, presence words and ownership tokens).
	DenseBytes int64
}

// Stats returns the current process-wide Dense accounting.
func Stats() MemStats {
	return MemStats{DenseBytes: denseBytes.Load()}
}

// pageBits sizes a Dense page: 64 slots, so one presence word per page.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// page is one 64-slot run of a Dense table. edit is the token of the table
// that allocated it and may therefore write it in place; every other table
// reaching the page copies it first (the trie's rule, trie.own).
type page[T any] struct {
	vals    [pageSize]T
	present uint64
	edit    uint64
}

// lastEdit hands out ownership tokens; they only need to be distinct.
var lastEdit atomic.Uint64

// Dense is a presence-tracked vector keyed by small stable integer ids — the
// Adj-RIB replacement for per-route hash maps, and the Loc-RIB's entry
// vector. BGP routers allocate one dense id per Loc-RIB prefix and never
// reuse it, so 64-slot pages with one presence word each give O(1)
// get/set/delete with none of a map's per-bucket overhead, and iteration in
// ascending id order is deterministic by construction.
//
// The zero value is an empty table ready for use. Dense is not safe for
// concurrent mutation; in the sharded convergence engine each table is owned
// by exactly one device, which is owned by exactly one shard.
//
// Tables fork copy-on-write (DESIGN.md §6): Seal gives up ownership of the
// directory and every page, Clone shares both, and a write copies the
// directory (a few dozen pointers) once and then only the pages it writes.
type Dense[T any] struct {
	pages []*page[T]
	live  int
	// edit is this table's ownership token: the directory and the pages
	// carrying the token are private to it. 0 means sealed — the table owns
	// nothing — and the first write draws a fresh token. copies counts pages
	// copied because another table shared them.
	edit   uint64
	copies int
}

// Copies returns how many pages the table has copied because another table
// shared them — the copy-on-write cost paid so far.
func (d *Dense[T]) Copies() int { return d.copies }

// Len returns the number of present entries.
func (d *Dense[T]) Len() int { return d.live }

// Seal gives up ownership of the directory and every page, so that the table
// can be cloned. It is the only step of sharing that writes the receiver:
// call it from one goroutine before the first Clone.
func (d *Dense[T]) Seal() { d.edit = 0 }

// own returns page i ready for an in-place write — allocated if absent,
// copied if another table may share it — growing the directory to reach it.
func (d *Dense[T]) own(i int) *page[T] {
	if d.edit == 0 {
		d.edit = lastEdit.Add(1)
		d.pages = slices.Clone(d.pages)
	}
	if i >= len(d.pages) {
		d.pages = append(d.pages, make([]*page[T], i+1-len(d.pages))...)
	}
	p := d.pages[i]
	switch {
	case p == nil:
		p = &page[T]{edit: d.edit}
	case p.edit != d.edit:
		c := *p
		c.edit = d.edit
		p = &c
		d.copies++
	default:
		return p
	}
	d.pages[i] = p
	denseBytes.Add(int64(unsafe.Sizeof(*p)))
	return p
}

// Set stores v under id. ids must be small and dense (they size the
// directory).
func (d *Dense[T]) Set(id int, v T) {
	p := d.own(id >> pageBits)
	b := uint64(1) << (id & (pageSize - 1))
	if p.present&b == 0 {
		p.present |= b
		d.live++
	}
	p.vals[id&(pageSize-1)] = v
}

// Get returns the value under id and whether it is present.
func (d *Dense[T]) Get(id int) (T, bool) {
	if i := uint(id >> pageBits); i < uint(len(d.pages)) {
		if p := d.pages[i]; p != nil && p.present&(1<<(id&(pageSize-1))) != 0 {
			return p.vals[id&(pageSize-1)], true
		}
	}
	var zero T
	return zero, false
}

// Delete removes id, reporting whether it was present. The slot is zeroed so
// pointer values do not pin garbage.
func (d *Dense[T]) Delete(id int) bool {
	if _, ok := d.Get(id); !ok {
		return false
	}
	p := d.own(id >> pageBits)
	p.present &^= 1 << (id & (pageSize - 1))
	var zero T
	p.vals[id&(pageSize-1)] = zero
	d.live--
	return true
}

// Range visits present entries in ascending id order — the deterministic
// iteration order every consumer relies on. Returning false stops the walk.
func (d *Dense[T]) Range(fn func(id int, v T) bool) {
	for i, p := range d.pages {
		if p == nil {
			continue
		}
		for bm := p.present; bm != 0; bm &= bm - 1 {
			j := bits.TrailingZeros64(bm)
			if !fn(i<<pageBits+j, p.vals[j]) {
				return
			}
		}
	}
}

// Clear removes every entry. Pages the table owns are zeroed and kept for
// reuse (a BGP session reset repopulates the same prefixes moments later);
// shared ones are dropped, and a sealed table drops its whole directory, so
// clearing a shared table allocates nothing.
func (d *Dense[T]) Clear() {
	if d.live == 0 {
		return
	}
	d.live = 0
	if d.edit == 0 {
		d.pages = nil
		return
	}
	for i, p := range d.pages {
		if p == nil {
			continue
		}
		if p.edit != d.edit {
			d.pages[i] = nil
			continue
		}
		var zero T
		for bm := p.present; bm != 0; bm &= bm - 1 {
			p.vals[bits.TrailingZeros64(bm)] = zero
		}
		p.present = 0
	}
}

// Clone returns a table sharing d's directory and pages (a value is copied
// shallowly when a write finally copies its page — for the Adj-RIB use they
// are immutable interned pointers). It only reads d, so concurrent forks may
// clone one sealed table at once. d must be sealed with no write since, or
// it would go on writing pages the clone reads; Clone panics if it is not.
func (d *Dense[T]) Clone() Dense[T] {
	if d.edit != 0 {
		panic("rib: Clone of a Dense written since its last Seal")
	}
	return Dense[T]{pages: d.pages, live: d.live}
}

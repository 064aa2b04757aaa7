package rib

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Process-wide accounting for every Dense table in the emulator. At M-DC
// scale the per-device Adj-RIB maps dominate the heap, so the scale work
// (DESIGN.md §10) replaces them with Dense tables and meters their footprint
// here: one atomic add per grow, no per-operation cost.
//
// The counters meter allocations; a Dense that is dropped wholesale (e.g. a
// discarded fork) is reclaimed by the GC without being subtracted, so the
// figures are high-water pressure, not an exact live-heap figure.
var (
	denseBytes atomic.Int64
	denseSlots atomic.Int64
	denseLive  atomic.Int64
)

// MemStats is a snapshot of the process-wide Dense accounting.
type MemStats struct {
	// DenseBytes is the total backing-array bytes currently allocated by
	// all Dense tables (values plus presence bitsets).
	DenseBytes int64
	// DenseSlots is the total slot capacity across all Dense tables.
	DenseSlots int64
	// DenseLive is the number of present entries across all Dense tables.
	DenseLive int64
}

// Stats returns the current process-wide Dense accounting.
func Stats() MemStats {
	return MemStats{
		DenseBytes: denseBytes.Load(),
		DenseSlots: denseSlots.Load(),
		DenseLive:  denseLive.Load(),
	}
}

// Dense is a presence-tracked slice keyed by small stable integer ids — the
// Adj-RIB replacement for per-route hash maps. BGP routers allocate one
// dense id per Loc-RIB prefix and never reuse it, so a grow-by-doubling
// value slice plus a bitset gives O(1) get/set/delete with none of a map's
// per-bucket overhead, and iteration in ascending id order is deterministic
// by construction.
//
// The zero value is an empty table ready for use. Dense is not safe for
// concurrent mutation; in the sharded convergence engine each table is owned
// by exactly one device, which is owned by exactly one shard.
//
// Tables fork copy-on-write (DESIGN.md §6): Seal marks the backing arrays
// shared, Clone then copies three words, and the first Set, Delete or Clear
// on either side replaces that side's arrays with private ones.
type Dense[T any] struct {
	vals    []T
	present []uint64
	live    int
	// shared is set while vals/present may be reachable from another table;
	// writers call unshare first. copies counts how often this table has
	// replaced shared arrays with private ones.
	shared bool
	copies int
}

// Copies returns how many times the table has paid for private arrays
// because its own were shared — the copy-on-write cost paid so far.
func (d *Dense[T]) Copies() int { return d.copies }

// Seal marks the table's arrays shared so that it can be cloned. It is the
// only step of sharing that writes the receiver: call it from one goroutine
// before the first Clone.
func (d *Dense[T]) Seal() { d.shared = true }

// adopt installs freshly allocated private arrays, booking the bytes they
// add over the ones they replace — all of their bytes when those were shared
// and so never this table's.
func (d *Dense[T]) adopt(nv []T, nb []uint64) {
	oldVals, oldWords := len(d.vals), len(d.present)
	if d.shared {
		oldVals, oldWords = 0, 0
		d.shared = false
		d.copies++
	}
	denseBytes.Add(elemBytes[T](len(nv)-oldVals) + int64(len(nb)-oldWords)*8)
	denseSlots.Add(int64(len(nv) - oldVals))
	d.vals, d.present = nv, nb
}

// unshare gives the table private copies of its arrays before a write.
func (d *Dense[T]) unshare() {
	d.adopt(append([]T(nil), d.vals...), append([]uint64(nil), d.present...))
}

func elemBytes[T any](n int) int64 {
	var z T
	return int64(n) * int64(unsafe.Sizeof(z))
}

func (d *Dense[T]) grow(id int) {
	need := id + 1
	newCap := len(d.vals)
	if newCap == 0 {
		newCap = 8
	}
	for newCap < need {
		newCap *= 2
	}
	nv := make([]T, newCap)
	copy(nv, d.vals)
	nb := make([]uint64, (newCap+63)/64)
	copy(nb, d.present)
	d.adopt(nv, nb)
}

// Set stores v under id, growing the table as needed. ids must be small and
// dense (they size the backing array).
func (d *Dense[T]) Set(id int, v T) {
	if id >= len(d.vals) {
		d.grow(id)
	} else if d.shared {
		d.unshare()
	}
	w, b := id/64, uint64(1)<<(id%64)
	if d.present[w]&b == 0 {
		d.present[w] |= b
		d.live++
		denseLive.Add(1)
	}
	d.vals[id] = v
}

// Get returns the value under id and whether it is present.
func (d *Dense[T]) Get(id int) (T, bool) {
	var zero T
	if id < 0 || id >= len(d.vals) || d.present[id/64]&(1<<(id%64)) == 0 {
		return zero, false
	}
	return d.vals[id], true
}

// Delete removes id, reporting whether it was present. The slot is zeroed so
// pointer values do not pin garbage.
func (d *Dense[T]) Delete(id int) bool {
	if id < 0 || id >= len(d.vals) {
		return false
	}
	w, b := id/64, uint64(1)<<(id%64)
	if d.present[w]&b == 0 {
		return false
	}
	if d.shared {
		d.unshare()
	}
	d.present[w] &^= b
	var zero T
	d.vals[id] = zero
	d.live--
	denseLive.Add(-1)
	return true
}

// Len returns the number of present entries.
func (d *Dense[T]) Len() int { return d.live }

// Range visits present entries in ascending id order — the deterministic
// iteration order every consumer relies on. Returning false stops the walk.
func (d *Dense[T]) Range(fn func(id int, v T) bool) {
	for w, bm := range d.present {
		for bm != 0 {
			i := w*64 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			if !fn(i, d.vals[i]) {
				return
			}
		}
	}
}

// Clear removes every entry, keeping the capacity for reuse (a BGP session
// reset repopulates the same prefixes moments later).
func (d *Dense[T]) Clear() {
	if d.live == 0 {
		return
	}
	denseLive.Add(-int64(d.live))
	d.live = 0
	if d.shared {
		// Nothing of the shared arrays survives a clear: start from zeroed
		// private ones of the same capacity instead of copying first.
		d.adopt(make([]T, len(d.vals)), make([]uint64, len(d.present)))
		return
	}
	var zero T
	for w, bm := range d.present {
		for bm != 0 {
			i := w*64 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			d.vals[i] = zero
		}
		d.present[w] = 0
	}
}

// Clone returns a table sharing d's backing arrays (the values are copied
// shallowly when a write finally separates the two — for the Adj-RIB use
// they are immutable interned pointers). It only reads d, so concurrent
// forks may clone one sealed table at once. d must be sealed with no write
// since, or it would go on writing arrays the clone reads; Clone panics if
// it is not.
func (d *Dense[T]) Clone() Dense[T] {
	if !d.shared {
		panic("rib: Clone of a Dense written since its last Seal")
	}
	denseLive.Add(int64(d.live))
	c := *d
	c.copies = 0
	return c
}

package bgp

import (
	"sync"
	"sync/atomic"

	"crystalnet/internal/netpkt"
)

// This file implements the process-wide path-attribute intern table.
//
// At M-DC scale the same attribute set is parsed out of UPDATEs O(routes ×
// peers × devices) times: every neighbor of every device allocates its own
// structurally identical *Attrs for every route it learns. Interning
// collapses those copies into one canonical immutable object per distinct
// attribute set, so Adj-RIB-In/Out entries across the whole emulation are
// shared pointers — the same invariant the checkpoint sealing machinery
// (DESIGN.md §6) establishes at fork time, extended to all of convergence.
//
// The table is process-global and thread-safe: independent engines run on
// parallel goroutines (chaos campaigns, crystald, sharded convergence), and
// sharing canonical attrs *between* engines is exactly the point. An Attrs
// is published to the table only after its memo (fingerprint and wire image)
// is filled, so readers never race a lazy fill. Canonical objects are immutable
// forever after (enforced under -tags crystaldebug).
//
// Interning is keyed by computeAttrsKey plus the AGGREGATOR router ID:
// the wire-grouping fingerprint (ekey) deliberately omits AggID, but two
// attribute sets differing only in AggID are distinct route attributes and
// must not unify. DESIGN.md §10 covers the table's lifetime.

// maxInternTable bounds the table; it is cleared wholesale when full, the
// same policy as the router-local memo caches. Canonical objects already
// handed out stay valid (and sealed) — only future lookups re-intern.
const maxInternTable = 1 << 17

var internTab = struct {
	sync.Mutex
	m map[internKey]*Attrs
	// wire is the way in from the wire: an attribute list's bytes, NEXT_HOP
	// value zeroed (maskNextHop), to the canonical object parseAttrs + Intern
	// made of them, so Decode resolves a list it has seen before without
	// building anything. Entries are added in the critical section that
	// interns their value and dropped whenever m is, so a value found here is
	// always the one m would return. Several byte strings may lead to one
	// object (attribute order, ignored optional attributes); the index has
	// m's bound to itself and is cleared alone when it alone fills.
	wire map[string]*Attrs
}{m: make(map[internKey]*Attrs), wire: make(map[string]*Attrs)}

type internKey struct {
	ekey  string
	aggID netpkt.IP
}

var (
	internHits   atomic.Uint64
	internMisses atomic.Uint64
	internSize   atomic.Int64
)

// InternStats reports the intern table's lifetime hits and misses and its
// current size. The counters are process-global accumulators, so they are
// reported by the bench harness (bench/: bgp.intern_hit_ratio) rather than
// recorded into the deterministic per-emulation obs trace.
func InternStats() (hits, misses uint64, size int) {
	return internHits.Load(), internMisses.Load(), int(internSize.Load())
}

// Intern returns the canonical *Attrs equal to a, registering a as the
// canonical object if none exists. The returned value must be treated as
// deeply immutable: it may be aliased by every RIB in the process. a itself
// must not be mutated after the call either (it may have become canonical).
// A nil a is returned unchanged.
func Intern(a *Attrs) *Attrs { return intern(a, nil) }

// intern is Intern for Decode's miss path: a non-nil wireKey (the bytes a was
// parsed from, as maskNextHop returns them) is entered in the wire index as
// leading to the canonical object.
func intern(a *Attrs, wireKey []byte) *Attrs {
	if a == nil {
		return a
	}
	key := internKey{ekey: attrsKey(a), aggID: a.AggID}
	internTab.Lock()
	c, hit := internTab.m[key]
	if !hit {
		if len(internTab.m) >= maxInternTable {
			internTab.m = make(map[internKey]*Attrs)
			internTab.wire = make(map[string]*Attrs)
		}
		// Fill the memos before publication: after this the object is
		// read-only, so cross-goroutine sharing is race-free. attrsKey did
		// the fingerprint; this is the wire image.
		wireImage(a)
		internTab.m[key] = a
		internSize.Store(int64(len(internTab.m)))
		c = a
	}
	if wireKey != nil {
		if len(internTab.wire) >= maxInternTable {
			internTab.wire = make(map[string]*Attrs)
		}
		internTab.wire[string(wireKey)] = c
	}
	internTab.Unlock()
	if hit {
		internHits.Add(1)
	} else {
		internMisses.Add(1)
	}
	return c
}

// lookupWire returns the canonical object the wire index holds for key, or
// nil. A hit is the intern hit the parse it replaces would have ended in, and
// is counted as one.
func lookupWire(key []byte) *Attrs {
	internTab.Lock()
	c := internTab.wire[string(key)]
	internTab.Unlock()
	if c != nil {
		internHits.Add(1)
	}
	return c
}

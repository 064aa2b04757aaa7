package bgp

import (
	"maps"
	"sync"
	"sync/atomic"

	"crystalnet/internal/netpkt"
)

// This file implements the path-attribute intern table.
//
// At M-DC scale the same attribute set is parsed out of UPDATEs O(routes ×
// peers × devices) times: every neighbor of every device allocates its own
// structurally identical *Attrs for every route it learns. Interning
// collapses those copies into one canonical immutable object per distinct
// attribute set, so Adj-RIB-In/Out entries across the whole emulation are
// shared pointers — the same invariant the checkpoint sealing machinery
// (DESIGN.md §6) establishes at fork time, extended to all of convergence.
//
// A table belongs to one emulation lineage: the emulation that made it,
// and through Seal and Fork its checkpoints' forks. An Attrs is published
// to a table only after its memo (fingerprint and wire image) is filled, so
// readers never race a lazy fill. Canonical objects are immutable forever
// after (enforced under -tags crystaldebug).
//
// Interning is keyed by computeAttrsKey plus the AGGREGATOR router ID:
// the wire-grouping fingerprint (ekey) deliberately omits AggID, but two
// attribute sets differing only in AggID are distinct route attributes and
// must not unify. DESIGN.md §10 covers the table's lifetime.

// AttrTable maps attribute values to their canonical *Attrs for one
// emulation lineage. Nothing is ever evicted, so a pointer the table handed
// out stays the one canonical object for its value for as long as any RIB
// of the lineage can compare against it: pointer equality is value equality
// (up to the AGGREGATOR-only differences flush folds). The table grows with
// the lineage's own distinct attribute sets and is freed with it.
//
// It has two layers. frozen is what the last Seal merged, shared read-only
// with every fork taken since and read without the lock; it is replaced,
// never edited. own holds what the table has added since.
type AttrTable struct {
	frozen attrLayer
	// mu guards own: the domain engines of a sharded emulation
	// (sim.ShardSet) converge on parallel goroutines over their
	// emulation's one table. It goes with the ShardSet (ROADMAP item 4).
	mu  sync.Mutex
	own attrLayer
}

// attrLayer is one layer of an AttrTable: the canonical objects by value,
// and the wire index. wire is the way in from the wire: an attribute list's
// bytes, NEXT_HOP value zeroed (maskNextHop), to the canonical object
// parseAttrs + intern made of them, so decodeAttrs resolves a list the
// lineage has seen before without building anything. Several byte strings
// may lead to one object (attribute order, ignored optional attributes).
type attrLayer struct {
	m    map[internKey]*Attrs
	wire map[string]*Attrs
}

type internKey struct {
	ekey  string
	aggID netpkt.IP
}

func newLayer() attrLayer {
	return attrLayer{m: map[internKey]*Attrs{}, wire: map[string]*Attrs{}}
}

// NewAttrTable returns an empty table.
func NewAttrTable() *AttrTable { return &AttrTable{own: newLayer()} }

// Seal makes everything the table holds readable by forks: both layers are
// merged into a new frozen layer, O(entries) once per checkpoint. The table
// goes on adding to a fresh own layer afterwards, so the frozen layer the
// forks read is never edited. Seal runs single-threaded, at
// Emulation.Checkpoint.
func (t *AttrTable) Seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.frozen.m) == 0 {
		// The first checkpoint has nothing to merge: the own layer is
		// frozen as it is, at no cost.
		t.frozen, t.own = t.own, newLayer()
		return
	}
	f := newLayer()
	for _, l := range [...]attrLayer{t.frozen, t.own} {
		maps.Copy(f.m, l.m)
		maps.Copy(f.wire, l.wire)
	}
	t.frozen, t.own = f, newLayer()
}

// Fork returns the table of a forked emulation: the frozen layer of the
// last Seal, shared, and an empty layer of its own. What either side adds
// afterwards the other never sees. Fork only reads t.
func (t *AttrTable) Fork() *AttrTable { return &AttrTable{frozen: t.frozen, own: newLayer()} }

var (
	internHits   atomic.Uint64
	internMisses atomic.Uint64
)

// InternStats reports the lifetime hits and misses of every table in the
// process, and size, the number of canonical objects they created (one per
// miss). The counters are process-global accumulators, so they are reported
// by the bench harness (bench/: bgp.intern_hit_ratio) rather than recorded
// into the deterministic per-emulation obs trace.
func InternStats() (hits, misses uint64, size int) {
	hits, misses = internHits.Load(), internMisses.Load()
	return hits, misses, int(misses)
}

// Intern returns the canonical *Attrs equal to a, registering a as the
// canonical object if none exists. The returned value must be treated as
// deeply immutable: it may be aliased by every RIB of the lineage. a itself
// must not be mutated after the call either (it may have become canonical).
// A nil a is returned unchanged.
func (t *AttrTable) Intern(a *Attrs) *Attrs { return t.intern(a, nil) }

// intern is Intern for decodeAttrs's miss path: a non-nil wireKey (the bytes
// a was parsed from, as maskNextHop returns them) is entered in the wire
// index as leading to the canonical object.
func (t *AttrTable) intern(a *Attrs, wireKey []byte) *Attrs {
	if a == nil {
		return a
	}
	key := internKey{ekey: attrsKey(a), aggID: a.AggID}
	c, hit := t.frozen.m[key]
	if !hit || wireKey != nil {
		t.mu.Lock()
		if !hit {
			if c, hit = t.own.m[key]; !hit {
				// Fill the memos before publication: after this the object
				// is read-only, so cross-goroutine sharing is race-free.
				// attrsKey did the fingerprint; this is the wire image.
				wireImage(a)
				t.own.m[key], c = a, a
			}
		}
		if wireKey != nil {
			t.own.wire[string(wireKey)] = c
		}
		t.mu.Unlock()
	}
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
func (t *AttrTable) lookupWire(key []byte) *Attrs {
	c := t.frozen.wire[string(key)]
	if c == nil {
		t.mu.Lock()
		c = t.own.wire[string(key)]
		t.mu.Unlock()
	}
	if c != nil {
		internHits.Add(1)
	}
	return c
}

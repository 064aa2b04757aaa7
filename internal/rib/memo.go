package rib

import "maps"

// Memo is a memoization table that forks the way bgp.AttrTable does: in two
// layers, so a sealed table's memo reaches its forks without a copy and
// without a lock (DESIGN.md §6). frozen is what the last Seal merged: shared
// read-only with every fork taken since, replaced and never edited. own is
// what this side has added since, private to it; a key it holds shadows the
// frozen layer's. A memo changes no output, only how much work a lookup
// saves, so what one side adds the other never needs to see. The zero value
// is empty and ready to use.
type Memo[K comparable, V any] struct {
	frozen, own map[K]V
}

// Get returns the value memoised for k: this side's own, else the frozen
// layer's.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	if v, ok := m.own[k]; ok {
		return v, true
	}
	v, ok := m.frozen[k]
	return v, ok
}

// Put memoises v for k in the own layer.
func (m *Memo[K, V]) Put(k K, v V) {
	if m.own == nil {
		m.own = map[K]V{}
	}
	m.own[k] = v
}

// Len returns the number of keys in the own layer, which a bounded memo
// empties with Drop when it is full.
func (m *Memo[K, V]) Len() int { return len(m.own) }

// Drop empties the own layer; the frozen layer stays.
func (m *Memo[K, V]) Drop() { m.own = nil }

// Seal merges both layers into a new frozen layer, which forks taken from
// now on share, and starts an empty own layer. Forks taken before keep the
// frozen layer they were given: Seal never edits it. It costs O(entries)
// when both layers hold something and nothing otherwise, so a lineage's
// first Seal — a mockup's checkpoint — freezes the own layer as it is. Seal
// writes m, so it runs single-threaded, at Emulation.Checkpoint.
func (m *Memo[K, V]) Seal() {
	switch {
	case len(m.own) == 0:
	case len(m.frozen) == 0:
		m.frozen = m.own
	default:
		f := make(map[K]V, len(m.frozen)+len(m.own))
		maps.Copy(f, m.frozen)
		maps.Copy(f, m.own)
		m.frozen = f
	}
	m.own = nil
}

// Fork returns the memo of a fork: the frozen layer of the last Seal,
// shared, and an empty own layer. Fork only reads m.
func (m *Memo[K, V]) Fork() Memo[K, V] { return Memo[K, V]{frozen: m.frozen} }

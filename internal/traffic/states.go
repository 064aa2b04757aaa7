package traffic

import "math/bits"

// states holds what every settle writes of a matrix's aggregates — each
// one's aggState — under the repo's write rule (DESIGN.md §6), the
// frozen-plus-own split rib.Memo and bgp.AttrTable use. Until seal, base is
// the matrix's own and is written in place. seal freezes it: from then on
// base is shared read-only with every fork taken after, and a write copies
// the one aggregate's state into this side's own layer — a bitset over
// aggregate indexes and a slab of the copies in aggregate order — so neither
// the sealed matrix nor a fork reaches the other. A flap writes a few hundred
// of a fabric's tens of thousands of aggregates, which is what a fork then
// pays for.
type states struct {
	base   []aggState
	frozen bool // base is sealed: shared, never written
	own    []uint64
	rank   []uint32 // set bits of own before each of its words
	slab   []aggState
	// added holds the first writes since flush, in aggregate order; own and
	// slab take them in at flush. A settle lends it its buffer (walkLog).
	added []ownState
}

type ownState struct {
	i int
	s aggState
}

// owns reports whether aggregate i's state lives in the own layer.
func (t *states) owns(i int) bool {
	return i>>6 < len(t.own) && t.own[i>>6]&(1<<(i&63)) != 0
}

// at returns aggregate i's state: shared, read-only — write with set.
func (t *states) at(i int) *aggState {
	if !t.owns(i) {
		return &t.base[i]
	}
	w := i >> 6
	return &t.slab[int(t.rank[w])+bits.OnesCount64(t.own[w]&(1<<(i&63)-1))]
}

// set stores s as aggregate i's state. A first write to a frozen aggregate
// is held until flush: between flushes such writes come in aggregate order,
// and at does not see them.
func (t *states) set(i int, s aggState) {
	switch {
	case !t.frozen:
		t.base[i] = s
	case t.owns(i):
		*t.at(i) = s
	default:
		t.added = append(t.added, ownState{i, s})
	}
}

// flush merges the writes set held back into the own layer.
func (t *states) flush() {
	if len(t.added) == 0 {
		return
	}
	if t.own == nil {
		t.own = make([]uint64, (len(t.base)+63)/64)
		t.rank = make([]uint32, len(t.own))
	}
	slab := make([]aggState, 0, len(t.slab)+len(t.added))
	add, old := t.added, 0
	for w, word := range t.own {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			for ; len(add) > 0 && add[0].i < i; add = add[1:] {
				slab = append(slab, add[0].s)
			}
			slab = append(slab, t.slab[old])
			old++
		}
	}
	for _, a := range add {
		slab = append(slab, a.s)
	}
	for _, a := range t.added {
		t.own[a.i>>6] |= 1 << (a.i & 63)
	}
	var n uint32
	for w, word := range t.own {
		t.rank[w] = n
		n += uint32(bits.OnesCount64(word))
	}
	t.slab, t.added = slab, t.added[:0]
}

// flat returns every state in one new slice, the own layer's over base's.
func (t *states) flat() []aggState {
	f := make([]aggState, len(t.base))
	copy(f, t.base)
	if len(t.slab) > 0 {
		for i := range f {
			f[i] = *t.at(i)
		}
	}
	return f
}

// private returns the states as a slice this side alone holds and may write
// in place, flattening a frozen table first. It is for the rare writes that
// reach every aggregate: a discarded or compacted memo.
func (t *states) private() []aggState {
	if t.frozen {
		*t = states{base: t.flat()}
	}
	return t.base
}

// seal freezes the states: base, with the own layer folded in, is shared
// from now on with every fork, and this side's writes go to a new own layer.
func (t *states) seal() {
	if len(t.slab) > 0 {
		*t = states{base: t.flat()}
	}
	t.frozen = true
}

// fork returns the states of a forked matrix. A frozen base with no own
// layer is shared; otherwise — a matrix never sealed, or one written since
// its seal, as a fork's own fork is — the fork gets a private flat copy.
// fork only reads t.
func (t *states) fork() states {
	if t.frozen && len(t.slab) == 0 {
		return states{base: t.base, frozen: true}
	}
	return states{base: t.flat()}
}

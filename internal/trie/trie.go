// Package trie implements a binary (Patricia-style, path-compressed) trie
// over IPv4 prefixes. It is the storage core for every RIB and FIB in the
// emulator: insert, delete, exact match, longest-prefix match and ordered
// walks, all allocation-lean so that L-DC-scale tables (Table 3: O(20M)
// entries across the fabric) stay affordable.
//
// The trie is persistent across Seal/Clone: a sealed trie and its clones
// share nodes, and a write copies only the nodes on its descent path that
// the writing trie does not own (DESIGN.md §6, the ownership invariant).
//
// DESIGN.md §4 records the allocation-lean trie as a key performance
// decision.
package trie

import (
	"math/bits"
	"sync/atomic"

	"crystalnet/internal/netpkt"
)

// node is a trie node. Leaf-ness is "has a value"; internal nodes may also
// carry values (a /16 above a /24).
type node[V any] struct {
	prefix   netpkt.Prefix
	children [2]*node[V]
	value    V
	// edit is the token of the trie that allocated the node and may
	// therefore write it in place; every other trie reaching the node copies
	// it first. The field rides in the padding the node's size class already
	// had, so ownership costs no bytes per prefix.
	edit     uint64
	hasValue bool
}

// Trie maps IPv4 prefixes to values of type V.
// The zero value is NOT ready to use; call New.
type Trie[V any] struct {
	root *node[V]
	size int
	// edit is this trie's ownership token: nodes carrying it are private to
	// the trie. 0 means sealed — the trie owns none of its nodes — and the
	// first write draws a fresh token.
	edit uint64
	// copies counts nodes path-copied by writes since the trie was created.
	copies int
}

// lastEdit hands out ownership tokens. Tokens only need to be distinct, so
// one process-wide counter serves every trie without coordination beyond
// the atomic add.
var lastEdit atomic.Uint64

// New returns an empty trie.
func New[V any]() *Trie[V] {
	e := lastEdit.Add(1)
	return &Trie[V]{root: &node[V]{prefix: netpkt.Prefix{Addr: 0, Len: 0}, edit: e}, edit: e}
}

// Seal gives up ownership of every node, so that the trie can be cloned:
// from here on a write to this trie copies the nodes on its path instead of
// editing them. Seal is the only step of sharing that writes the receiver;
// call it from one goroutine before the first Clone.
func (t *Trie[V]) Seal() { t.edit = 0 }

// Clone returns a trie sharing every node with t, in O(1). It only reads t,
// so any number of goroutines may clone one sealed trie at once. t must be
// sealed with no write since — otherwise t would go on editing, in place,
// nodes the clone can see — and Clone panics if it is not.
func (t *Trie[V]) Clone() *Trie[V] {
	if t.edit != 0 {
		panic("trie: Clone of a trie written since its last Seal")
	}
	return &Trie[V]{root: t.root, size: t.size}
}

// Copies returns how many nodes writes to this trie have copied because
// another trie shared them — the copy-on-write cost paid so far.
func (t *Trie[V]) Copies() int { return t.copies }

// own returns the node in *slot ready for an in-place write, replacing it
// with a private copy first when another trie may share it. The slot must
// itself be owned (the root field, or a child pointer of an owned node),
// which a top-down descent guarantees.
func (t *Trie[V]) own(slot **node[V]) *node[V] {
	n := *slot
	if n.edit != t.edit {
		c := *n
		c.edit = t.edit
		n = &c
		*slot = n
		t.copies++
	}
	return n
}

// writableRoot starts a write: it draws the trie's ownership token if this
// is the first write after New or Seal, and returns the root owned.
func (t *Trie[V]) writableRoot() *node[V] {
	if t.edit == 0 {
		t.edit = lastEdit.Add(1)
	}
	return t.own(&t.root)
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }

// bitAt returns bit i (0 = most significant) of addr.
func bitAt(addr netpkt.IP, i uint8) int {
	return int(addr>>(31-i)) & 1
}

// maskTab[l] is the netmask for a prefix of length l; a table lookup keeps
// the branch for l == 0 out of the per-node descent loops.
var maskTab [33]netpkt.IP

func init() {
	for l := 1; l <= 32; l++ {
		maskTab[l] = netpkt.IP(^uint32(0) << (32 - l))
	}
}

// commonPrefixLen returns the length of the longest common prefix of a and b,
// capped at maxLen.
func commonPrefixLen(a, b netpkt.IP, maxLen uint8) uint8 {
	n := uint8(bits.LeadingZeros32(uint32(a ^ b)))
	if n > maxLen {
		n = maxLen
	}
	return n
}

// Insert adds or replaces the value for prefix p. It returns true if the
// prefix was newly added, false if an existing value was replaced.
func (t *Trie[V]) Insert(p netpkt.Prefix, v V) bool {
	p.Addr &= maskTab[p.Len]
	n := t.writableRoot()
	for {
		if n.prefix.Len == p.Len && n.prefix.Addr == p.Addr {
			added := !n.hasValue
			n.value, n.hasValue = v, true
			if added {
				t.size++
			}
			return added
		}
		// p extends below n.
		dir := bitAt(p.Addr, n.prefix.Len)
		child := n.children[dir]
		if child == nil {
			n.children[dir] = &node[V]{prefix: p, value: v, hasValue: true, edit: t.edit}
			t.size++
			return true
		}
		// How much of child's prefix does p share?
		common := commonPrefixLen(p.Addr, child.prefix.Addr, min8(p.Len, child.prefix.Len))
		if common == child.prefix.Len {
			// p lies below child; descend.
			n = t.own(&n.children[dir])
			continue
		}
		if common == p.Len {
			// p is an ancestor of child: splice p in between n and child.
			// child itself is only pointed at, never written, so it stays shared.
			mid := &node[V]{prefix: p, value: v, hasValue: true, edit: t.edit}
			mid.children[bitAt(child.prefix.Addr, p.Len)] = child
			n.children[dir] = mid
			t.size++
			return true
		}
		// Diverge: create a glue node at the common length.
		glue := &node[V]{prefix: netpkt.Prefix{Addr: p.Addr & maskTab[common], Len: common}, edit: t.edit}
		glue.children[bitAt(child.prefix.Addr, common)] = child
		leaf := &node[V]{prefix: p, value: v, hasValue: true, edit: t.edit}
		glue.children[bitAt(p.Addr, common)] = leaf
		n.children[dir] = glue
		t.size++
		return true
	}
}

func maskFor(l uint8) netpkt.IP { return maskTab[l] }

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}

// Get returns the value stored for exactly prefix p. The descent is a tight
// iterative loop — one mask-table lookup and one shift per node — because
// every FIB install on the BGP hot path funnels through here.
func (t *Trie[V]) Get(p netpkt.Prefix) (V, bool) {
	addr := p.Addr & maskTab[p.Len]
	n := t.root
	for {
		nl := n.prefix.Len
		if nl >= p.Len {
			if nl == p.Len && n.prefix.Addr == addr && n.hasValue {
				return n.value, true
			}
			break
		}
		if n.prefix.Addr != addr&maskTab[nl] {
			break
		}
		if n = n.children[(addr>>(31-nl))&1]; n == nil {
			break
		}
	}
	var zero V
	return zero, false
}

// Delete removes prefix p. It returns true if the prefix was present.
// Structural glue nodes are left in place; they are cheap and simplify
// deletion, and tables in the emulator are rebuilt wholesale on reload.
func (t *Trie[V]) Delete(p netpkt.Prefix) bool {
	// An absent prefix must not copy its would-be path, so presence is
	// settled read-only first.
	if _, ok := t.Get(p); !ok {
		return false
	}
	addr := p.Addr & maskTab[p.Len]
	n := t.writableRoot()
	for n.prefix.Len != p.Len {
		n = t.own(&n.children[(addr>>(31-n.prefix.Len))&1])
	}
	var zero V
	n.value, n.hasValue = zero, false
	t.size--
	return true
}

// Lookup performs longest-prefix match for ip, returning the most specific
// covering prefix and its value.
func (t *Trie[V]) Lookup(ip netpkt.IP) (netpkt.Prefix, V, bool) {
	var (
		bestP netpkt.Prefix
		bestV V
		found bool
		n     = t.root
	)
	for {
		nl := n.prefix.Len
		if n.prefix.Addr != ip&maskTab[nl] {
			break
		}
		if n.hasValue {
			bestP, bestV, found = n.prefix, n.value, true
		}
		if nl == 32 {
			break
		}
		if n = n.children[(ip>>(31-nl))&1]; n == nil {
			break
		}
	}
	return bestP, bestV, found
}

// Walk visits every stored prefix in ascending (address, length) order.
// Returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(p netpkt.Prefix, v V) bool) {
	t.walk(t.root, fn)
}

func (t *Trie[V]) walk(n *node[V], fn func(p netpkt.Prefix, v V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasValue {
		if !fn(n.prefix, n.value) {
			return false
		}
	}
	if !t.walk(n.children[0], fn) {
		return false
	}
	return t.walk(n.children[1], fn)
}

// WalkCovered visits every stored prefix contained in p (including p itself).
func (t *Trie[V]) WalkCovered(p netpkt.Prefix, fn func(q netpkt.Prefix, v V) bool) {
	p.Addr &= maskTab[p.Len]
	n := t.root
	// Descend to the node region covering p.
	for n != nil && n.prefix.Len < p.Len {
		if n.prefix.Addr != p.Addr&maskTab[n.prefix.Len] {
			return
		}
		n = n.children[bitAt(p.Addr, n.prefix.Len)]
	}
	if n == nil || !p.ContainsPrefix(n.prefix) {
		return
	}
	t.walk(n, fn)
}

// Prefixes returns all stored prefixes in walk order.
func (t *Trie[V]) Prefixes() []netpkt.Prefix {
	out := make([]netpkt.Prefix, 0, t.size)
	t.Walk(func(p netpkt.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

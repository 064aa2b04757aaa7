//go:build crystaldebug

package bgp

import (
	"bytes"
	"fmt"

	"crystalnet/internal/netpkt"
)

// debugAttrs enables the sealed-Attrs mutation assertions (-tags
// crystaldebug).
const debugAttrs = true

// assertSealed panics if a sealed/interned Attrs was mutated after its memo
// was filled: the fingerprint and the wire image are both recomputed from the
// fields and compared. The Attrs doc comment promises each is "filled at most
// once" and that copy-and-mutate code starts from editable; this is the
// enforcement for that contract. A mutation of AggID alone escapes the
// fingerprint (which deliberately omits it for wire grouping, which is why
// the intern key carries AggID separately) but not the wire image.
func assertSealed(a *Attrs) {
	if a.memo.ekey != "" && a.memo.ekey != computeAttrsKey(a) {
		panic(fmt.Sprintf("bgp: sealed Attrs mutated after fingerprint fill: %s", a))
	}
	if a.memo.wire != nil {
		if image, nhOff := marshalAttrs(a, 0); !bytes.Equal(image, a.memo.wire) || nhOff != a.memo.nhOff {
			panic(fmt.Sprintf("bgp: wire image of %s is not what marshalAttrs encodes", a))
		}
	}
}

// assertWireHit is the wire index's oracle: the attribute list b that hit
// t's index is parsed and interned in t the long way, and must come to the
// same object and next hop.
func assertWireHit(t *AttrTable, hit *Attrs, nextHop netpkt.IP, b []byte) {
	a, nh, err := parseAttrs(b)
	if err != nil || nh != nextHop || t.Intern(a) != hit {
		panic(fmt.Sprintf("bgp: wire index resolved % x to %s nh=%s; parser says %v nh=%s err=%v", b, hit, nextHop, a, nh, err))
	}
}

// assertMemosFilled panics unless every *Attrs r's forks can reach has its
// memo filled — the Loc-RIB candidates, the entries' lastBest caches and the
// templates advertised to each peer — which every attrs that came through
// an AttrTable has. An unfilled one would be filled lazily by whichever fork
// read it first, racing the others.
func assertMemosFilled(r *Router) {
	check := func(a *Attrs) {
		if a != nil && (a.memo.ekey == "" || a.memo.wire == nil) {
			panic(fmt.Sprintf("bgp: %s reached %s's RIB without interning: its memo is unfilled at Seal", a, r.cfg.Name))
		}
	}
	for _, e := range r.entries {
		for i := range e.candidates {
			check(e.candidates[i].attrs)
		}
		check(e.lastBest)
	}
	for _, p := range r.peers {
		p.advertised.Range(func(_ int, a *Attrs) bool {
			check(a)
			return true
		})
	}
}

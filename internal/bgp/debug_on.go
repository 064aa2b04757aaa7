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

// assertWireHit is the wire index's oracle: the attribute list b that hit it
// is parsed and interned the long way, and must come to the same object and
// next hop.
func assertWireHit(hit *Attrs, nextHop netpkt.IP, b []byte) {
	a, nh, err := parseAttrs(b)
	if err != nil || nh != nextHop || Intern(a) != hit {
		panic(fmt.Sprintf("bgp: wire index resolved % x to %s nh=%s; parser says %v nh=%s err=%v", b, hit, nextHop, a, nh, err))
	}
}

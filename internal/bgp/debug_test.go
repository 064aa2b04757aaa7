//go:build crystaldebug

package bgp

import (
	"testing"

	"crystalnet/internal/netpkt"
)

// TestSealedMutationCaught is the regression the crystaldebug assertion
// exists for: code that copies an Attrs, mutates the copy, and forgets to
// reset the fingerprint memo would silently poison UPDATE grouping and the
// intern table. Under -tags crystaldebug the next attrsKey touch panics.
func TestSealedMutationCaught(t *testing.T) {
	a := NewAttrTable().Intern(&Attrs{Origin: OriginIGP, Path: NewPath(65001), NextHop: netpkt.IPFromBytes(10, 0, 0, 9)})

	// The violation: a shallow copy keeps the sealed ekey while the
	// attribute bytes change underneath it.
	c := *a
	c.NextHop = netpkt.IPFromBytes(10, 0, 0, 10)

	defer func() {
		if recover() == nil {
			t.Fatalf("copy-and-mutate without resetting ekey was not caught")
		}
	}()
	attrsKey(&c)
}

// TestSealedUnmutatedPasses pins the assertion down: touching a sealed but
// unmutated Attrs must not panic.
func TestSealedUnmutatedPasses(t *testing.T) {
	a := NewAttrTable().Intern(&Attrs{Origin: OriginEGP, Path: NewPath(65002), NextHop: 3})
	if attrsKey(a) == "" {
		t.Fatal("empty key")
	}
}

// TestSealCatchesUninternedAttrs: Seal fills no attrs memo, because
// everything in a RIB came through an AttrTable. An attrs that did not — here a
// locally originated candidate slipped in past Originate/InjectLocal — has an
// empty memo that concurrent forks would race to fill; under the tag Seal
// refuses it.
func TestSealCatchesUninternedAttrs(t *testing.T) {
	n := newTnet(t)
	a := n.add("a", 65001, nil)
	a.r.Originate(netpkt.MustParsePrefix("100.64.0.0/24"))
	a.r.Seal() // everything interned: passes

	n = newTnet(t)
	b := n.add("b", 65002, nil)
	b.r.upsertCandidate(netpkt.MustParsePrefix("100.64.1.0/24"), nil, &Attrs{Origin: OriginIGP, Path: EmptyPath})
	defer func() {
		if recover() == nil {
			t.Fatal("Seal accepted an attrs that never went through an AttrTable")
		}
	}()
	b.r.Seal()
}

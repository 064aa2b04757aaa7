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
	resetInternTable()

	a := Intern(&Attrs{Origin: OriginIGP, Path: NewPath(65001), NextHop: netpkt.IPFromBytes(10, 0, 0, 9)})

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
	a := Intern(&Attrs{Origin: OriginEGP, Path: NewPath(65002), NextHop: 3})
	if attrsKey(a) == "" {
		t.Fatal("empty key")
	}
}

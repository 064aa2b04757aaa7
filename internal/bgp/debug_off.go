//go:build !crystaldebug

package bgp

import "crystalnet/internal/netpkt"

// debugAttrs gates the sealed-Attrs mutation assertions. In release builds
// the checks compile away; build with -tags crystaldebug to enable them
// (scripts/check.sh does for this package).
const debugAttrs = false

// assertSealed, assertWireHit and assertMemosFilled are no-ops in release
// builds.
func assertSealed(*Attrs) {}

func assertMemosFilled(*Router) {}

func assertWireHit(*AttrTable, *Attrs, netpkt.IP, []byte) {}

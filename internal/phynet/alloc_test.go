//go:build !race

package phynet

import (
	"testing"

	"crystalnet/internal/netpkt"
)

// TestAllocBudgetDelivery: a frame sent behind the underlay's headroom
// crosses VMs without an allocation — encapsulated in place, queued on the
// link's lane rather than as a closure — and one without the headroom costs
// the copy that gives it some. (The race detector allocates on its own
// account; this builds without it.)
func TestAllocBudgetDelivery(t *testing.T) {
	eng, f, c1, c2, _ := build(t, LinuxBridge)
	c2.Attach(func(string, []byte) {})
	from := c1.Iface("et0")
	buf := make([]byte, netpkt.UnderlayHeaderLen+256)
	bare := buf[netpkt.UnderlayHeaderLen:]
	f.SendFramed(from, buf, netpkt.UnderlayHeaderLen)
	eng.Run(0)
	if got := testing.AllocsPerRun(1000, func() {
		f.SendFramed(from, buf, netpkt.UnderlayHeaderLen)
		eng.Run(0)
	}); got != 0 {
		t.Errorf("cross-VM send with headroom allocates %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		f.Send(from, bare)
		eng.Run(0)
	}); got != 1 {
		t.Errorf("cross-VM send without headroom allocates %.1f times, want 1 (the copy)", got)
	}
}

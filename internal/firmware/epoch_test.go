package firmware

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

// bootSorted boots the rig's devices in name order, so that same-seed rigs
// draw the same boot jitter per device, and runs for d.
func (r *rig) bootSorted(d time.Duration) {
	names := make([]string, 0, len(r.devices))
	for name := range r.devices {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		r.devices[name].Boot(nil)
	}
	r.eng.RunFor(d)
}

// logsSince returns d's log lines from the n-th on.
func logsSince(d *Device, n int) string { return strings.Join(d.Logs[n:], "\n") }

// TestCrashSilencesPendingMRAIFlush: a route originated just before a crash
// sits in the MRAI batch. The crashed firmware's router still holds the flush
// timer, but its hooks belong to the boot that crashed, so the UPDATE never
// leaves the device and the neighbour never learns the route.
func TestCrashSilencesPendingMRAIFlush(t *testing.T) {
	r := buildRig(t, pairTopo(), nil)
	r.bootAll()
	a, b := r.devices["a"], r.devices["b"]
	fresh := netpkt.MustParsePrefix("100.65.0.0/24")
	sent := a.BGPUpdatesSent
	a.bgp.Originate(fresh)
	a.Crash("test")
	logs := len(a.Logs)
	r.run()
	if _, ok := b.BGP().BestRoute(fresh); ok {
		t.Fatalf("b learned %s from a after a crashed", fresh)
	}
	if a.BGPUpdatesSent != sent {
		t.Fatalf("crashed a sent %d BGP messages", a.BGPUpdatesSent-sent)
	}
	if len(a.Logs) != logs {
		t.Fatalf("crashed a kept logging:\n%s", logsSince(a, logs))
	}
}

// TestLinkDownResetsPeersInIndexOrder: a device with two BGP neighbours on
// one interface — one established, one half-open towards an address nobody
// answers ARP for — loses that interface. Both sessions reset, in the order
// they were configured, so same-seed runs log and deliver identically.
func TestLinkDownResetsPeersInIndexOrder(t *testing.T) {
	run := func() string {
		r := buildRig(t, pairTopo(), nil)
		a := r.devices["a"]
		second := a.cfg.Neighbors[0]
		second.IP, second.Desc = netpkt.MustParseIP("10.255.0.99"), "ghost"
		a.cfg.Neighbors = append(a.cfg.Neighbors, second)
		r.bootSorted(10 * time.Second)
		if a.PullStates().Established != 1 {
			t.Fatal("a-b session did not establish")
		}
		var frames []string
		for _, d := range []*Device{a, r.devices["b"]} {
			d.container.Attach(func(iface string, frame []byte) {
				frames = append(frames, fmt.Sprintf("%s %s/%s %d", r.eng.Now(), d.Name, iface, len(frame)))
				d.handleFrame(iface, frame)
			})
		}
		logs := len(a.Logs)
		a.LinkDown("et0")
		r.eng.RunFor(10 * time.Second)
		return logsSince(a, logs) + "\n--\n" + strings.Join(r.devices["b"].Logs, "\n") + "\n--\n" + strings.Join(frames, "\n")
	}
	want := run()
	if strings.Count(want, "reset: link down") != 2 {
		t.Fatalf("want both sessions reset by the link failure:\n%s", want)
	}
	for i := 1; i < 40; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs from run 0:\n%s\n==== run 0:\n%s", i, got, want)
		}
	}
}

// TestForkKeepsLogsApart pins the shared append-only log: a fork starts with
// its parent's lines, and a line either side writes afterwards — into spare
// capacity of the array they share — never shows on the other.
func TestForkKeepsLogsApart(t *testing.T) {
	d := &Device{Name: "d", eng: sim.NewEngine(1)}
	for i := 0; i < 3; i++ {
		d.logf("boot %d", i)
	}
	if cap(d.Logs) == len(d.Logs) {
		t.Fatal("the parent's log needs spare capacity for this test")
	}
	before := slices.Clone(d.Logs)
	d.Seal()
	a := d.Fork(sim.NewEngine(1), nil, nil, nil, nil)
	b := d.Fork(sim.NewEngine(1), nil, nil, nil, nil)
	d.logf("parent")
	a.logf("fork a")
	b.logf("fork b")
	for _, c := range []struct {
		dev  *Device
		want string
	}{{d, "parent"}, {a, "fork a"}, {b, "fork b"}} {
		if len(c.dev.Logs) != 4 || !slices.Equal(c.dev.Logs[:3], before) || !strings.HasSuffix(c.dev.Logs[3], c.want) {
			t.Fatalf("%s's log: %q", c.want, c.dev.Logs)
		}
	}
}

// TestForkKeepsARPAndFlapsApart: a fork shares its parent's ARP tables until
// one side writes them. A fork that learns a binding or flaps a session
// leaves the parent's tables and flap count as they were, and neither its
// sibling nor the parent, writing on its own account, shows through.
func TestForkKeepsARPAndFlapsApart(t *testing.T) {
	d := &Device{Name: "d", eng: sim.NewEngine(1), state: DeviceRunning}
	d.learnARP(1, netpkt.MAC{1})
	d.arpAttempts.set(2, 1)
	d.onSessionEvent(bgp.StateEstablished, bgp.StateIdle)
	d.Seal()
	a := d.Fork(sim.NewEngine(1), nil, nil, nil, nil)
	b := d.Fork(sim.NewEngine(1), nil, nil, nil, nil)
	a.learnARP(2, netpkt.MAC{2})
	a.onSessionEvent(bgp.StateEstablished, bgp.StateIdle)
	d.learnARP(3, netpkt.MAC{3})
	for _, c := range []struct {
		name     string
		dev      *Device
		arp      map[netpkt.IP]netpkt.MAC
		attempts map[netpkt.IP]int
		flaps    int
	}{
		{"parent", d, map[netpkt.IP]netpkt.MAC{1: {1}, 3: {3}}, map[netpkt.IP]int{2: 1}, 1},
		{"fork a", a, map[netpkt.IP]netpkt.MAC{1: {1}, 2: {2}}, map[netpkt.IP]int{}, 2},
		{"fork b", b, map[netpkt.IP]netpkt.MAC{1: {1}}, map[netpkt.IP]int{2: 1}, 1},
	} {
		if !maps.Equal(c.dev.arp.m, c.arp) || !maps.Equal(c.dev.arpAttempts.m, c.attempts) || c.dev.flaps != c.flaps {
			t.Fatalf("%s: arp %v attempts %v flaps %d, want %v %v %d",
				c.name, c.dev.arp.m, c.dev.arpAttempts.m, c.dev.flaps, c.arp, c.attempts, c.flaps)
		}
	}
}

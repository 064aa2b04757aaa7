//go:build !race && !crystaldebug

package bgp

import (
	"runtime"
	"testing"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

// The allocation budgets of the per-UPDATE path. The race detector and the
// crystaldebug oracles allocate on their own account, so these build without
// either.

// TestAllocBudgetUpdateRoundTrip: encoding and decoding a 100-prefix UPDATE
// over attributes seen before costs the message, the decoded message and its
// NLRI — it was 28 allocations before the wire image and the wire index.
func TestAllocBudgetUpdateRoundTrip(t *testing.T) {
	nlri := make([]netpkt.Prefix, 100)
	for i := range nlri {
		nlri[i] = netpkt.Prefix{Addr: netpkt.IP(0x64400000 + i<<8), Len: 24}
	}
	for _, tc := range []struct {
		name  string
		attrs *Attrs
	}{
		{"interned", Intern(&Attrs{Origin: OriginIGP, Path: NewPath(65000, 65100, 4200000001)})},
		{"caller-built", &Attrs{Origin: OriginIGP, Path: NewPath(65000, 65100, 4200000002)}},
	} {
		u := &Update{Attrs: tc.attrs, NextHop: ip("10.128.0.1"), NLRI: nlri}
		got := testing.AllocsPerRun(200, func() {
			if d, err := Decode(MarshalUpdate(u)); err != nil || len(d.Update.NLRI) != len(nlri) {
				t.Fatalf("round trip: %v", err)
			}
		})
		if got > 4 {
			t.Errorf("%s attrs: UPDATE round trip allocates %.0f times, budget 4", tc.name, got)
		}
	}
}

// TestAllocBudgetFlush: once the router's scratch has grown to a flush's size,
// flushing k re-advertised prefixes of one group allocates the messages it
// sends and nothing else — no group map, key list, sort closure or chunk list.
func TestAllocBudgetFlush(t *testing.T) {
	const k = 1000
	sent := 0
	r := New(Config{Name: "r", AS: 65001, RouterID: 1}, simClock{sim.NewEngine(1)}, Hooks{
		SendToPeer: func(int, []byte) { sent++ },
	})
	p := r.AddPeer(PeerConfig{Name: "n", LocalIP: 1, RemoteIP: 2, RemoteAS: 65002, Interface: "et0"})
	p.state = StateEstablished
	sets := [2]*Attrs{
		{Origin: OriginIGP, Path: NewPath(65010)},
		{Origin: OriginIGP, Path: NewPath(65011)},
	}
	readvertise := func(a *Attrs) {
		for i := 0; i < k; i++ {
			r.InjectLocal(netpkt.Prefix{Addr: netpkt.IP(0x64400000 + i<<8), Len: 24}, a)
		}
	}
	// Two flushes to steady state: the scratch, the dirty list and the
	// Adj-RIB-Out grow to k, and both sets' export templates get cached.
	for round := 0; round < 2; round++ {
		readvertise(sets[round])
		p.flush()
	}
	for round := 2; round < 5; round++ {
		readvertise(sets[round%2])
		if len(p.dirtyList) != k {
			t.Fatalf("round %d: %d prefixes dirty, want %d", round, len(p.dirtyList), k)
		}
		sent = 0
		mallocs := mallocsOf(p.flush)
		if want := (k + MaxNLRIPerUpdate(sets[0]) - 1) / MaxNLRIPerUpdate(sets[0]); sent != want {
			t.Fatalf("round %d: %d messages, want %d", round, sent, want)
		}
		if mallocs != uint64(sent) {
			t.Errorf("round %d: flush of %d prefixes in %d messages allocated %d times, want one buffer per message", round, k, sent, mallocs)
		}
	}
}

// mallocsOf counts the heap allocations of one call of f, the way
// testing.AllocsPerRun does, for an f that cannot be run twice.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocBudgetHandleMessage: a short UPDATE is decoded on HandleMessage's
// stack — body, attributes through the wire index, prefixes in a fixed
// buffer — so re-announcing a route the router already holds allocates
// nothing at all.
func TestAllocBudgetHandleMessage(t *testing.T) {
	r := New(Config{Name: "r", AS: 65001, RouterID: 1}, simClock{sim.NewEngine(1)}, Hooks{
		SendToPeer: func(int, []byte) {},
	})
	p := r.AddPeer(PeerConfig{Name: "n", LocalIP: 1, RemoteIP: 2, RemoteAS: 65002, Interface: "et0"})
	p.state = StateEstablished
	msg := MarshalUpdate(&Update{
		Attrs: &Attrs{Origin: OriginIGP, Path: NewPath(65002, 65100)}, NextHop: 2,
		NLRI: []netpkt.Prefix{{Addr: 0x64400000, Len: 24}, {Addr: 0x64400100, Len: 24}},
	})
	p.HandleMessage(msg)
	if got := testing.AllocsPerRun(1000, func() { p.HandleMessage(msg) }); got != 0 {
		t.Errorf("handling a repeated 2-prefix UPDATE allocates %.1f times, want 0", got)
	}
	if r.LocRIB() != 2 {
		t.Fatalf("LocRIB = %d, want 2", r.LocRIB())
	}
}

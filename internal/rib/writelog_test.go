package rib

import (
	"slices"
	"sync"
	"testing"

	"crystalnet/internal/netpkt"
)

func mustInstall(t *testing.T, f *FIB, p string) {
	t.Helper()
	if err := f.Install(entry(p, ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
}

// slash24 is the i-th /24 of 10.0.0.0/8.
func slash24(i int) netpkt.Prefix {
	return netpkt.Prefix{Addr: netpkt.MustParseIP("10.0.0.0") + netpkt.IP(i)<<8, Len: 24}
}

func TestVersionCountsEveryWrite(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := NewFIB()
		f.Capacity = 3
		mustInstall(t, f, "10.0.0.0/8")
		if sealed {
			f.Seal()
		}
		v := f.Version()
		step := func(what string, wrote bool) {
			t.Helper()
			want := v
			if wrote {
				want++
			}
			if got := f.Version(); got != want {
				t.Fatalf("sealed=%v: Version after %s = %d, want %d", sealed, what, got, want)
			}
			v = f.Version()
		}
		mustInstall(t, f, "10.1.0.0/16")
		step("Install", true)
		mustInstall(t, f, "10.1.0.0/16")
		step("re-Install of the same prefix", true)
		if err := f.InstallHops(pfx("10.2.0.0/16"), ProtoBGP, []NextHop{{Interface: "et1"}}); err != nil {
			t.Fatal(err)
		}
		step("InstallHops", true)
		if err := f.InstallHops(pfx("10.3.0.0/16"), ProtoBGP, nil); err != ErrFull {
			t.Fatalf("InstallHops over capacity = %v", err)
		}
		step("ErrFull", false)
		if !f.Remove(pfx("10.2.0.0/16")) {
			t.Fatal("Remove of a present prefix reported absent")
		}
		step("Remove", true)
		if f.Remove(pfx("10.2.0.0/16")) {
			t.Fatal("Remove of an absent prefix reported present")
		}
		step("Remove of an absent prefix", false)
	}
}

func TestWritesSinceIsExactOrRefuses(t *testing.T) {
	f := NewFIB()
	mustInstall(t, f, "10.0.0.0/8")
	early := f.Version()
	if _, ok := f.WritesSince(early); ok {
		t.Fatal("an unsealed table claimed to have a write log")
	}
	mustInstall(t, f, "10.1.0.0/16")
	f.Seal()
	sealedAt := f.Version()
	if _, ok := f.WritesSince(early); ok {
		t.Fatal("WritesSince accepted a version with unlogged (unsealed) writes after it")
	}
	if w, ok := f.WritesSince(sealedAt); !ok || len(w) != 0 {
		t.Fatalf("WritesSince(version at Seal) = %v, %v; want none, true", w, ok)
	}

	mustInstall(t, f, "10.2.0.0/16")
	f.Remove(pfx("10.1.0.0/16"))
	mid := f.Version()
	mustInstall(t, f, "10.2.0.0/16")
	want := []netpkt.Prefix{pfx("10.2.0.0/16"), pfx("10.1.0.0/16"), pfx("10.2.0.0/16")}
	if w, ok := f.WritesSince(sealedAt); !ok || !slices.Equal(w, want) {
		t.Fatalf("WritesSince(seal) = %v, %v; want %v in order", w, ok, want)
	}
	if w, ok := f.WritesSince(mid); !ok || !slices.Equal(w, want[2:]) {
		t.Fatalf("WritesSince(mid) = %v, %v; want %v", w, ok, want[2:])
	}
	if _, ok := f.WritesSince(f.Version() + 1); ok {
		t.Fatal("WritesSince accepted a version the table has not reached")
	}
	// Sealing again keeps the history: the table was logging all along.
	f.Seal()
	if w, ok := f.WritesSince(sealedAt); !ok || !slices.Equal(w, want) {
		t.Fatalf("after re-Seal WritesSince(seal) = %v, %v; want %v", w, ok, want)
	}
}

func TestWritesSinceRefusesOnceTheRingWraps(t *testing.T) {
	f := NewFIB()
	f.Seal()
	start := f.Version()
	for i := 0; i < writeLogCap; i++ {
		if err := f.InstallHops(slash24(i), ProtoBGP, []NextHop{{Interface: "et0"}}); err != nil {
			t.Fatal(err)
		}
	}
	w, ok := f.WritesSince(start)
	if !ok || len(w) != writeLogCap || w[0] != slash24(0) || w[writeLogCap-1] != slash24(writeLogCap-1) {
		t.Fatalf("a full ring lost writes: ok=%v len=%d", ok, len(w))
	}
	f.Remove(slash24(7))
	if _, ok := f.WritesSince(start); ok {
		t.Fatal("WritesSince returned a history whose first write the ring has overwritten")
	}
	// The newest writeLogCap writes are still whole, in order, across the wrap.
	w, ok = f.WritesSince(start + 1)
	if !ok || len(w) != writeLogCap || w[0] != slash24(1) || w[writeLogCap-1] != slash24(7) {
		t.Fatalf("WritesSince across the wrap: ok=%v len=%d first=%v last=%v", ok, len(w), w[0], w[len(w)-1])
	}
}

// TestCloneLogsItsOwnWrites is the fork contract: clones continue the
// parent's version with an empty log, write concurrently (scripts/check.sh
// runs this package under -race), and leave the parent's log alone.
func TestCloneLogsItsOwnWrites(t *testing.T) {
	f := NewFIB()
	mustInstall(t, f, "10.0.0.0/8")
	f.Seal()
	sealedAt := f.Version()
	mustInstall(t, f, "10.1.0.0/16")
	f.Seal() // Clone wants no write since Seal
	parentWrites := []netpkt.Prefix{pfx("10.1.0.0/16")}

	clones := []*FIB{f.Clone(), f.Clone()}
	var wg sync.WaitGroup
	for i, c := range clones {
		if c.Version() != f.Version() {
			t.Fatalf("clone starts at version %d, parent is at %d", c.Version(), f.Version())
		}
		if w, ok := c.WritesSince(f.Version()); !ok || len(w) != 0 {
			t.Fatalf("fresh clone's log = %v, %v; want empty, true", w, ok)
		}
		if _, ok := c.WritesSince(sealedAt); ok {
			t.Fatal("clone answered for writes its parent made before the clone existed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 100; n++ {
				if err := c.InstallHops(slash24(100*i+n), ProtoBGP, []NextHop{{Interface: "et0"}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for i, c := range clones {
		w, ok := c.WritesSince(f.Version())
		if !ok || len(w) != 100 || w[0] != slash24(100*i) || w[99] != slash24(100*i+99) {
			t.Fatalf("clone %d: ok=%v, %d writes", i, ok, len(w))
		}
	}
	if w, ok := f.WritesSince(sealedAt); !ok || !slices.Equal(w, parentWrites) {
		t.Fatalf("parent's log after its clones wrote = %v, %v; want %v", w, ok, parentWrites)
	}
}

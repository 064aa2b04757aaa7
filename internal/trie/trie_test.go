package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"crystalnet/internal/netpkt"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }
func ip(s string) netpkt.IP      { return netpkt.MustParseIP(s) }

func TestInsertGet(t *testing.T) {
	tr := New[string]()
	if !tr.Insert(pfx("10.0.0.0/8"), "a") {
		t.Fatal("first insert should report new")
	}
	if tr.Insert(pfx("10.0.0.0/8"), "b") {
		t.Fatal("re-insert should report replace")
	}
	if v, ok := tr.Get(pfx("10.0.0.0/8")); !ok || v != "b" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := tr.Get(pfx("10.0.0.0/9")); ok {
		t.Fatal("unexpected /9 present")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestLPMBasic(t *testing.T) {
	tr := New[string]()
	tr.Insert(pfx("0.0.0.0/0"), "default")
	tr.Insert(pfx("10.0.0.0/8"), "eight")
	tr.Insert(pfx("10.1.0.0/16"), "sixteen")
	tr.Insert(pfx("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		ip   string
		want string
	}{
		{"10.1.2.3", "twentyfour"},
		{"10.1.3.3", "sixteen"},
		{"10.2.0.1", "eight"},
		{"11.0.0.1", "default"},
	}
	for _, c := range cases {
		_, v, ok := tr.Lookup(ip(c.ip))
		if !ok || v != c.want {
			t.Errorf("Lookup(%s) = %q, %v; want %q", c.ip, v, ok, c.want)
		}
	}
}

func TestLPMNoDefault(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("192.168.0.0/16"), 1)
	if _, _, ok := tr.Lookup(ip("10.0.0.1")); ok {
		t.Fatal("lookup outside table should miss")
	}
}

func TestHostRoutes(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("10.0.0.1/32"), 1)
	tr.Insert(pfx("10.0.0.0/24"), 2)
	if _, v, _ := tr.Lookup(ip("10.0.0.1")); v != 1 {
		t.Fatalf("host route not preferred: got %d", v)
	}
	if _, v, _ := tr.Lookup(ip("10.0.0.2")); v != 2 {
		t.Fatalf("covering /24 not matched: got %d", v)
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("10.0.0.0/8"), 1)
	tr.Insert(pfx("10.1.0.0/16"), 2)
	if !tr.Delete(pfx("10.1.0.0/16")) {
		t.Fatal("delete existing returned false")
	}
	if tr.Delete(pfx("10.1.0.0/16")) {
		t.Fatal("double delete returned true")
	}
	if tr.Delete(pfx("10.9.0.0/16")) {
		t.Fatal("delete absent returned true")
	}
	if _, v, _ := tr.Lookup(ip("10.1.2.3")); v != 1 {
		t.Fatalf("after delete, lookup = %d, want 1 (fall back to /8)", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestSiblingSplit(t *testing.T) {
	// Two prefixes that diverge mid-way force a glue node.
	tr := New[int]()
	tr.Insert(pfx("10.1.0.0/16"), 1)
	tr.Insert(pfx("10.2.0.0/16"), 2)
	if _, v, _ := tr.Lookup(ip("10.1.5.5")); v != 1 {
		t.Fatal("sibling 1 unreachable")
	}
	if _, v, _ := tr.Lookup(ip("10.2.5.5")); v != 2 {
		t.Fatal("sibling 2 unreachable")
	}
	if _, _, ok := tr.Lookup(ip("10.3.0.1")); ok {
		t.Fatal("glue node must not match")
	}
}

func TestAncestorInsertAfterDescendant(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("10.1.2.0/24"), 24)
	tr.Insert(pfx("10.1.0.0/16"), 16) // splice above existing leaf
	if _, v, _ := tr.Lookup(ip("10.1.2.1")); v != 24 {
		t.Fatal("descendant lost")
	}
	if _, v, _ := tr.Lookup(ip("10.1.9.1")); v != 16 {
		t.Fatal("ancestor not inserted")
	}
}

func TestWalkOrderAndCompleteness(t *testing.T) {
	tr := New[int]()
	ps := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.168.0.0/16", "0.0.0.0/0", "172.16.0.0/12"}
	for i, s := range ps {
		tr.Insert(pfx(s), i)
	}
	var got []netpkt.Prefix
	tr.Walk(func(p netpkt.Prefix, _ int) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(ps) {
		t.Fatalf("walk visited %d, want %d", len(got), len(ps))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Addr > b.Addr || (a.Addr == b.Addr && a.Len > b.Len) {
			t.Fatalf("walk order violated: %v before %v", a, b)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 10; i++ {
		tr.Insert(netpkt.Prefix{Addr: netpkt.IP(i << 24), Len: 8}, i)
	}
	count := 0
	tr.Walk(func(netpkt.Prefix, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestDefaultRouteOnly(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("0.0.0.0/0"), 42)
	if _, v, ok := tr.Lookup(ip("203.0.113.9")); !ok || v != 42 {
		t.Fatal("default route must match everything")
	}
	if !tr.Delete(pfx("0.0.0.0/0")) {
		t.Fatal("cannot delete default")
	}
	if _, _, ok := tr.Lookup(ip("203.0.113.9")); ok {
		t.Fatal("default still matching after delete")
	}
}

// referenceLPM is an O(n) model to check the trie against.
type referenceLPM struct {
	entries map[netpkt.Prefix]int
}

func (r *referenceLPM) lookup(a netpkt.IP) (netpkt.Prefix, int, bool) {
	var (
		best  netpkt.Prefix
		bestV int
		found bool
	)
	for p, v := range r.entries {
		if p.Contains(a) && (!found || p.Len > best.Len) {
			best, bestV, found = p, v, true
		}
	}
	return best, bestV, found
}

func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New[int]()
	ref := &referenceLPM{entries: map[netpkt.Prefix]int{}}

	for i := 0; i < 3000; i++ {
		p := netpkt.Prefix{Addr: netpkt.IP(rng.Uint32()), Len: uint8(rng.Intn(33))}
		p.Addr &= p.MaskIP()
		switch rng.Intn(3) {
		case 0, 1:
			tr.Insert(p, i)
			ref.entries[p] = i
		case 2:
			delete(ref.entries, p)
			tr.Delete(p)
		}
	}
	if tr.Len() != len(ref.entries) {
		t.Fatalf("Len = %d, reference = %d", tr.Len(), len(ref.entries))
	}
	for i := 0; i < 5000; i++ {
		a := netpkt.IP(rng.Uint32())
		gp, gv, gok := tr.Lookup(a)
		wp, wv, wok := ref.lookup(a)
		if gok != wok || (gok && (gp != wp || gv != wv)) {
			t.Fatalf("Lookup(%v) = %v,%d,%v; reference %v,%d,%v", a, gp, gv, gok, wp, wv, wok)
		}
	}
	// Every reference entry must be exactly retrievable.
	for p, v := range ref.entries {
		if got, ok := tr.Get(p); !ok || got != v {
			t.Fatalf("Get(%v) = %d,%v; want %d", p, got, ok, v)
		}
	}
}

func TestPropertyInsertThenLookupSelf(t *testing.T) {
	f := func(addr uint32, l uint8) bool {
		p := netpkt.Prefix{Addr: netpkt.IP(addr), Len: l % 33}
		p.Addr &= p.MaskIP()
		tr := New[bool]()
		tr.Insert(p, true)
		// The prefix's own base address must resolve to the prefix.
		got, _, ok := tr.Lookup(p.Addr)
		return ok && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLenMatchesDistinctInserts(t *testing.T) {
	f := func(addrs []uint32) bool {
		tr := New[int]()
		seen := map[netpkt.Prefix]bool{}
		for i, a := range addrs {
			p := netpkt.Prefix{Addr: netpkt.IP(a), Len: uint8(8 + i%25)}
			p.Addr &= p.MaskIP()
			tr.Insert(p, i)
			seen[p] = true
		}
		return tr.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prefixes := make([]netpkt.Prefix, 100000)
	for i := range prefixes {
		prefixes[i] = netpkt.Prefix{Addr: netpkt.IP(rng.Uint32()), Len: uint8(8 + rng.Intn(25))}
		prefixes[i].Addr &= prefixes[i].MaskIP()
	}
	b.ResetTimer()
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		tr.Insert(prefixes[i%len(prefixes)], i)
	}
}

func BenchmarkLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		p := netpkt.Prefix{Addr: netpkt.IP(rng.Uint32()), Len: uint8(8 + rng.Intn(25))}
		p.Addr &= p.MaskIP()
		tr.Insert(p, i)
	}
	addrs := make([]netpkt.IP, 1024)
	for i := range addrs {
		addrs[i] = netpkt.IP(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prefixes := make([]netpkt.Prefix, 65536)
	for i := range prefixes {
		prefixes[i] = netpkt.Prefix{Addr: netpkt.IP(rng.Uint32()), Len: uint8(8 + rng.Intn(25))}
		prefixes[i].Addr &= prefixes[i].MaskIP()
	}
	b.ResetTimer()
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		p := prefixes[i%len(prefixes)]
		tr.Insert(p, i)
		tr.Delete(p)
	}
}

func BenchmarkGet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int]()
	prefixes := make([]netpkt.Prefix, 0, 100000)
	for i := 0; i < 100000; i++ {
		p := netpkt.Prefix{Addr: netpkt.IP(rng.Uint32()), Len: uint8(8 + rng.Intn(25))}
		p.Addr &= p.MaskIP()
		tr.Insert(p, i)
		prefixes = append(prefixes, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(prefixes[i%len(prefixes)])
	}
}

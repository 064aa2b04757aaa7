package trie

import (
	"fmt"
	"strings"
	"testing"

	"crystalnet/internal/netpkt"
)

// dump renders a trie's Walk output, the form the isolation checks compare.
func dump(t *Trie[int]) string {
	var b strings.Builder
	t.Walk(func(p netpkt.Prefix, v int) bool {
		fmt.Fprintf(&b, "%s=%d\n", p, v)
		return true
	})
	return b.String()
}

func TestCloneSharesUntilWritten(t *testing.T) {
	parent := New[int]()
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16", "192.168.0.0/16"} {
		parent.Insert(pfx(s), i)
	}
	parent.Seal()
	before := dump(parent)
	a, b := parent.Clone(), parent.Clone()
	if a.root != parent.root || b.root != parent.root {
		t.Fatal("a clone must share the parent's root until it writes")
	}
	if a.Len() != parent.Len() || dump(a) != before {
		t.Fatal("clone differs from parent before any write")
	}

	// A replace, a fresh leaf, a delete and a splice on a; nothing on b.
	a.Insert(pfx("10.1.2.0/24"), 100)
	a.Insert(pfx("10.3.0.0/16"), 101)
	a.Delete(pfx("192.168.0.0/16"))
	a.Insert(pfx("10.1.0.0/12"), 102)
	if got := dump(parent); got != before {
		t.Fatalf("parent changed by a clone's writes:\n%s\nwant:\n%s", got, before)
	}
	if got := dump(b); got != before {
		t.Fatalf("sibling clone changed by a clone's writes:\n%s", got)
	}
	if v, ok := a.Get(pfx("10.1.2.0/24")); !ok || v != 100 {
		t.Fatalf("clone lost its own write: %d, %v", v, ok)
	}
	if _, ok := a.Get(pfx("192.168.0.0/16")); ok || a.Len() != parent.Len()+1 {
		t.Fatalf("clone delete/len wrong: len %d, parent %d", a.Len(), parent.Len())
	}

	// The cost is the path, and it is paid once: rewriting a prefix whose
	// path the clone already owns copies nothing.
	if a.Copies() == 0 || a.Copies() > 4*33 {
		t.Fatalf("copies = %d, want between 1 and four paths' worth", a.Copies())
	}
	paid := a.Copies()
	a.Insert(pfx("10.1.2.0/24"), 103)
	if a.Copies() != paid {
		t.Fatalf("second write to an owned path copied %d more nodes", a.Copies()-paid)
	}
	// Deleting what is not there must not copy the would-be path.
	if b.Delete(pfx("172.16.0.0/12")) || b.Copies() != 0 {
		t.Fatalf("absent delete copied %d nodes", b.Copies())
	}

	// The parent may move on after its clones were taken: its writes are
	// path copies too and no clone sees them.
	afterA := dump(a)
	parent.Insert(pfx("10.1.2.0/24"), 200)
	parent.Delete(pfx("10.2.0.0/16"))
	if dump(a) != afterA || dump(b) != before {
		t.Fatal("a parent's write after cloning reached a clone")
	}
	if parent.Copies() == 0 {
		t.Fatal("a sealed parent must copy what it writes")
	}
}

func TestCloneOfUnsealedPanics(t *testing.T) {
	tr := New[int]()
	tr.Insert(pfx("10.0.0.0/8"), 1)
	mustPanic := func(name string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Clone did not panic", name)
			}
		}()
		tr.Clone()
	}
	mustPanic("never sealed")
	tr.Seal()
	tr.Clone()
	tr.Insert(pfx("10.1.0.0/16"), 2)
	mustPanic("written since seal")
}

// FuzzTriePersistent drives a clone of a sealed trie through a random
// insert/delete/lookup script next to a map model, and checks after every
// write that the parent's Walk output has not moved. The script is a run of
// 6-byte operations (opcode, 4 address bytes, length); the first byte says
// how many of them build the parent before it is sealed.
func FuzzTriePersistent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 10, 0, 0, 0, 8, 0, 10, 1, 0, 0, 16, 0, 10, 1, 2, 0, 24, 2, 10, 1, 0, 0, 16, 3, 10, 1, 2, 3, 32})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 1, 0, 192, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 160, 0, 0, 0, 3, 2, 128, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		base, script := int(script[0]), script[1:]
		parent := New[int]()
		model := map[netpkt.Prefix]int{}
		var frozen string
		var clone *Trie[int]
		tr := parent
		for i := 0; len(script) >= 6; i++ {
			if i == base || (len(script) < 12 && clone == nil) {
				parent.Seal()
				frozen = dump(parent)
				clone = parent.Clone()
				tr = clone
			}
			op := script[0] % 4
			addr := netpkt.IP(script[1])<<24 | netpkt.IP(script[2])<<16 | netpkt.IP(script[3])<<8 | netpkt.IP(script[4])
			p := netpkt.Prefix{Addr: addr, Len: script[5] % 33}
			p.Addr &= p.MaskIP()
			script = script[6:]
			switch op {
			case 0, 1:
				_, had := model[p]
				if added := tr.Insert(p, i); added == had {
					t.Fatalf("op %d: Insert(%v) added=%v, model had=%v", i, p, added, had)
				}
				model[p] = i
			case 2:
				_, had := model[p]
				if removed := tr.Delete(p); removed != had {
					t.Fatalf("op %d: Delete(%v)=%v, model had=%v", i, p, removed, had)
				}
				delete(model, p)
			case 3:
				var want netpkt.Prefix
				wantV, found := 0, false
				for q, v := range model {
					if q.Contains(addr) && (!found || q.Len > want.Len) {
						want, wantV, found = q, v, true
					}
				}
				got, gotV, ok := tr.Lookup(addr)
				if ok != found || (ok && (got != want || gotV != wantV)) {
					t.Fatalf("op %d: Lookup(%v) = %v,%d,%v; model %v,%d,%v", i, addr, got, gotV, ok, want, wantV, found)
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("op %d: Len=%d, model %d", i, tr.Len(), len(model))
			}
			if clone != nil && op != 3 {
				if got := dump(parent); got != frozen {
					t.Fatalf("op %d: parent Walk changed under a clone's write:\n%s\nwant:\n%s", i, got, frozen)
				}
			}
		}
		for p, v := range model {
			if got, ok := tr.Get(p); !ok || got != v {
				t.Fatalf("Get(%v) = %d,%v; model %d", p, got, ok, v)
			}
		}
		n := 0
		tr.Walk(func(p netpkt.Prefix, v int) bool {
			if model[p] != v {
				t.Fatalf("Walk yields %v=%d, model %d", p, v, model[p])
			}
			n++
			return true
		})
		if n != len(model) {
			t.Fatalf("Walk visited %d prefixes, model holds %d", n, len(model))
		}
	})
}

package rib

import "testing"

func TestDenseBasics(t *testing.T) {
	var d Dense[*Entry]
	if d.live != 0 {
		t.Fatal("zero value not empty")
	}
	e1, e2 := &Entry{}, &Entry{}
	d.Set(3, e1)
	d.Set(70, e2)
	d.Set(3, e2) // overwrite must not double-count
	if d.live != 2 {
		t.Fatalf("len=%d want 2", d.live)
	}
	if v, ok := d.Get(3); !ok || v != e2 {
		t.Fatal("get(3)")
	}
	if _, ok := d.Get(4); ok {
		t.Fatal("get(4) should be absent")
	}
	if _, ok := d.Get(-1); ok {
		t.Fatal("get(-1) should be absent")
	}
	var ids []int
	d.Range(func(id int, v *Entry) bool {
		ids = append(ids, id)
		return true
	})
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 70 {
		t.Fatalf("range order %v, want [3 70]", ids)
	}
	if !d.Delete(70) || d.Delete(70) {
		t.Fatal("delete(70)")
	}
	if d.live != 1 {
		t.Fatalf("len=%d want 1", d.live)
	}
}

func TestDenseCloneClear(t *testing.T) {
	var d Dense[int]
	for i := 0; i < 100; i++ {
		d.Set(i, i*i)
	}
	d.Seal()
	c := d.Clone()
	c.Set(5, -1)
	if v, _ := d.Get(5); v != 25 {
		t.Fatal("clone mutated the original")
	}
	for i := 10; i < 100; i++ {
		d.Delete(i)
	}
	if d.live != 10 || c.live != 100 {
		t.Fatalf("len after delete: original %d want 10, clone %d want 100", d.live, c.live)
	}
	for i := 0; i < 10; i++ {
		if v, ok := d.Get(i); !ok || v != i*i {
			t.Fatalf("get(%d) after delete", i)
		}
	}
	d.Set(200, 1) // grow past the cloned capacity
	if v, ok := d.Get(200); !ok || v != 1 {
		t.Fatal("set after delete")
	}
	c.Clear()
	if c.live != 0 {
		t.Fatal("clear")
	}
	c.Range(func(int, int) bool { t.Fatal("range over cleared table"); return false })
}

// TestDenseSharesUntilWritten pins the copy-on-write contract: a clone costs
// no arrays, the first write on either side pays for one private copy, and
// neither side ever sees the other's writes.
func TestDenseSharesUntilWritten(t *testing.T) {
	var parent Dense[int]
	for i := 0; i < 70; i++ {
		parent.Set(i, i)
	}
	parent.Seal()
	before := Stats()
	a, b, c, g := parent.Clone(), parent.Clone(), parent.Clone(), parent.Clone()
	if got := Stats(); got.DenseBytes != before.DenseBytes || got.DenseSlots != before.DenseSlots {
		t.Fatalf("cloning allocated arrays: %+v -> %+v", before, got)
	}
	if &a.vals[0] != &parent.vals[0] || &a.present[0] != &parent.present[0] {
		t.Fatal("an unwritten clone must share its parent's arrays")
	}

	// Reads never copy.
	if v, ok := a.Get(7); !ok || v != 7 || a.live != 70 || a.Copies() != 0 {
		t.Fatalf("read through a clone: %d %v len=%d copies=%d", v, ok, a.live, a.Copies())
	}
	a.Set(7, -7)    // overwrite
	b.Delete(8)     // delete
	c.Clear()       // clear starts from zeroed arrays of the same capacity
	g.Set(1000, 42) // grow
	a.Set(9, -9)    // a second write is in place
	for name, tbl := range map[string]*Dense[int]{"set": &a, "delete": &b, "clear": &c, "grow": &g} {
		if tbl.Copies() != 1 {
			t.Errorf("%s: copies = %d, want 1", name, tbl.Copies())
		}
	}
	if b.Delete(8) || b.Copies() != 1 {
		t.Fatal("deleting an absent id must not copy")
	}
	if len(c.vals) != len(parent.vals) || c.live != 0 {
		t.Fatalf("clear of a shared table: cap %d (parent %d), len %d", len(c.vals), len(parent.vals), c.live)
	}
	for i := 0; i < 70; i++ {
		if v, ok := parent.Get(i); !ok || v != i {
			t.Fatalf("parent[%d] = %d,%v after its clones wrote", i, v, ok)
		}
	}
	if _, ok := parent.Get(1000); ok || parent.Copies() != 0 {
		t.Fatal("a clone's grow reached the parent")
	}
	if v, _ := g.Get(69); v != 69 {
		t.Fatal("grow of a shared table lost its contents")
	}

	// The parent moving on copies too, and leaves its clones alone.
	d := parent.Clone()
	parent.Set(3, 333)
	if v, _ := d.Get(3); v != 3 || parent.Copies() != 1 {
		t.Fatalf("parent write after clone: clone sees %d, parent copies %d", v, parent.Copies())
	}

	// Cloning a table written since its seal is a bug, not a silent alias.
	defer func() {
		if recover() == nil {
			t.Fatal("Clone of a written-since-seal table did not panic")
		}
	}()
	parent.Clone()
}

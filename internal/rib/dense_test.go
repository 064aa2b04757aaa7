package rib

import (
	"maps"
	"testing"
	"unsafe"
)

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

// TestDenseSharesUntilWritten pins the copy-on-write contract page by page:
// a clone allocates nothing, a write on either side copies the one page it
// lands on, and neither side ever sees the other's writes.
func TestDenseSharesUntilWritten(t *testing.T) {
	var parent Dense[int]
	for i := 0; i < 130; i++ {
		parent.Set(i, i)
	}
	parent.Seal()
	before := Stats()
	a, b, c, g := parent.Clone(), parent.Clone(), parent.Clone(), parent.Clone()
	if got := Stats(); got.DenseBytes != before.DenseBytes {
		t.Fatalf("cloning allocated pages: %+v -> %+v", before, got)
	}
	if &a.pages[0] != &parent.pages[0] {
		t.Fatal("an unwritten clone must share its parent's directory")
	}

	// Reads never copy.
	if v, ok := a.Get(7); !ok || v != 7 || a.Len() != 130 || a.Copies() != 0 {
		t.Fatalf("read through a clone: %d %v len=%d copies=%d", v, ok, a.Len(), a.Copies())
	}
	a.Set(7, -7)    // overwrite copies page 0
	b.Delete(8)     // delete copies page 0
	c.Clear()       // clear drops the shared directory: nothing to copy
	g.Set(1000, 42) // a page past the parent's is allocated, not copied
	a.Set(9, -9)    // a second write to an owned page is in place
	for name, want := range map[string]struct {
		tbl    *Dense[int]
		copies int
	}{"set": {&a, 1}, "delete": {&b, 1}, "clear": {&c, 0}, "grow": {&g, 0}} {
		if got := want.tbl.Copies(); got != want.copies {
			t.Errorf("%s: copies = %d, want %d", name, got, want.copies)
		}
	}
	if a.pages[0] == parent.pages[0] || a.pages[1] != parent.pages[1] || a.pages[2] != parent.pages[2] {
		t.Fatal("a write to page 0 must copy page 0 and only page 0")
	}
	if b.Delete(8) || b.Copies() != 1 {
		t.Fatal("deleting an absent id must not copy")
	}
	if c.pages != nil || c.Len() != 0 {
		t.Fatalf("clear of a shared table kept %d pages, len %d", len(c.pages), c.Len())
	}
	c.Range(func(int, int) bool { t.Fatal("range over cleared table"); return false })
	for i := 0; i < 130; i++ {
		if v, ok := parent.Get(i); !ok || v != i {
			t.Fatalf("parent[%d] = %d,%v after its clones wrote", i, v, ok)
		}
	}
	if _, ok := parent.Get(1000); ok || parent.Copies() != 0 || len(parent.pages) != 3 {
		t.Fatal("a clone's grow reached the parent")
	}
	if v, _ := g.Get(69); v != 69 || g.pages[1] != parent.pages[1] {
		t.Fatal("grow of a shared table lost or copied its contents")
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

// TestDenseWriteCopiesOnePage is the point of the paged layout: one write to
// a clone of a 1,000-id table copies one 64-slot page, not the table.
func TestDenseWriteCopiesOnePage(t *testing.T) {
	var parent Dense[*Entry]
	for i := 0; i < 1000; i++ {
		parent.Set(i, &Entry{})
	}
	parent.Seal()
	c := parent.Clone()
	before := Stats()
	c.Set(500, &Entry{})
	if c.Copies() != 1 {
		t.Fatalf("one write copied %d pages, want 1", c.Copies())
	}
	if got := Stats().DenseBytes - before.DenseBytes; got != int64(unsafe.Sizeof(page[*Entry]{})) {
		t.Fatalf("one write allocated %d page bytes, want one page", got)
	}
	shared := 0
	for i := range parent.pages {
		if c.pages[i] == parent.pages[i] {
			shared++
		} else if i != 500/pageSize {
			t.Fatalf("page %d was copied by a write to page %d", i, 500/pageSize)
		}
	}
	if shared != len(parent.pages)-1 {
		t.Fatalf("%d of %d pages still shared, want all but one", shared, len(parent.pages))
	}
}

// FuzzDensePersistent runs a random Set/Delete/Clear/Seal/Clone script over
// a family of tables — a root and the clones taken along the way — and
// checks every table against its own map model after every operation, so a
// write that leaks into a table sharing its pages shows at once. Range must
// visit ascending ids, Len must agree with the model, and one write copies
// at most one page. The script is a run of 3-byte operations (opcode with
// the table in its high bits, then a little-endian id below 1,024, which
// spans 16 pages).
func FuzzDensePersistent(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 0, 70, 0, 4, 0, 0, 0x10, 5, 0, 0x12, 70, 0, 0x13, 0, 0, 0, 200, 3})
	f.Add([]byte{0, 1, 0, 0, 255, 3, 4, 0, 0, 4, 0, 0, 0x20, 1, 0, 0x11, 255, 3, 0x05, 0, 0, 0x02, 1, 0, 0x04, 0, 0, 0x30, 9, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		const maxTables = 8
		tables := []*Dense[int]{{}}
		models := []map[int]int{{}}
		for i := 0; len(script) >= 3; i++ {
			op, k := script[0]%8, int(script[0]>>4)%len(tables)
			id := (int(script[1]) | int(script[2])<<8) % 1024
			script = script[3:]
			d, m := tables[k], models[k]
			copies := d.Copies()
			switch op {
			case 0, 1:
				d.Set(id, i)
				m[id] = i
			case 2, 3:
				_, had := m[id]
				if got := d.Delete(id); got != had {
					t.Fatalf("op %d: Delete(%d) on table %d = %v, model had %v", i, id, k, got, had)
				}
				delete(m, id)
			case 4:
				if len(tables) < maxTables {
					d.Seal()
					c := d.Clone()
					tables = append(tables, &c)
					models = append(models, maps.Clone(m))
				}
			case 5:
				d.Seal()
			case 6:
				d.Clear()
				clear(m)
			case 7:
				want, had := m[id]
				if v, ok := d.Get(id); ok != had || v != want {
					t.Fatalf("op %d: Get(%d) on table %d = %d,%v, model %d,%v", i, id, k, v, ok, want, had)
				}
			}
			if d.Copies()-copies > 1 {
				t.Fatalf("op %d: one write copied %d pages", i, d.Copies()-copies)
			}
			for j, tbl := range tables {
				checkDense(t, i, j, tbl, models[j])
			}
		}
	})
}

// checkDense compares table j against its model after operation i.
func checkDense(t *testing.T, i, j int, d *Dense[int], m map[int]int) {
	t.Helper()
	if d.Len() != len(m) {
		t.Fatalf("op %d: table %d Len=%d, model %d", i, j, d.Len(), len(m))
	}
	n, last := 0, -1
	d.Range(func(id, v int) bool {
		if id <= last {
			t.Fatalf("op %d: table %d Range visits %d after %d", i, j, id, last)
		}
		if want, ok := m[id]; !ok || want != v {
			t.Fatalf("op %d: table %d Range yields %d=%d, model %d,%v", i, j, id, v, want, ok)
		}
		last = id
		n++
		return true
	})
	if n != len(m) {
		t.Fatalf("op %d: table %d Range visited %d ids, model holds %d", i, j, n, len(m))
	}
	for id, want := range m {
		if v, ok := d.Get(id); !ok || v != want {
			t.Fatalf("op %d: table %d Get(%d) = %d,%v, model %d", i, j, id, v, ok, want)
		}
	}
}

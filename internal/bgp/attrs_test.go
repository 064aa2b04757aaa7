package bgp

import "testing"

func TestASPathLength(t *testing.T) {
	p := &ASPath{Segments: []Segment{
		{Type: ASSequence, ASNs: []uint32{1, 2, 3}},
		{Type: ASSet, ASNs: []uint32{4, 5}},
	}}
	if p.Length() != 4 { // 3 + 1 for the set
		t.Fatalf("Length = %d, want 4", p.Length())
	}
	if EmptyPath.Length() != 0 {
		t.Fatal("empty path length != 0")
	}
}

func TestASPathPrepend(t *testing.T) {
	p := NewPath(2, 1)
	q := p.Prepend(6)
	if q.String() != "6 2 1" {
		t.Fatalf("prepend = %q", q.String())
	}
	if p.String() != "2 1" {
		t.Fatal("prepend mutated receiver")
	}
	// Prepend to empty.
	e := EmptyPath.Prepend(7)
	if e.String() != "7" || EmptyPath.Length() != 0 {
		t.Fatalf("prepend to empty = %q", e.String())
	}
	// Prepend in front of an AS_SET creates a new sequence segment.
	s := &ASPath{Segments: []Segment{{Type: ASSet, ASNs: []uint32{1, 2}}}}
	r := s.Prepend(9)
	if r.String() != "9 {1 2}" {
		t.Fatalf("prepend before set = %q", r.String())
	}
}

func TestASPathContainsFirstLast(t *testing.T) {
	p := NewPath(6, 2, 1)
	if !p.Contains(2) || p.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if p.First() != 6 {
		t.Fatalf("First = %d", p.First())
	}
	if EmptyPath.First() != 0 {
		t.Fatal("empty First should be 0")
	}
}

func TestASPathEqual(t *testing.T) {
	a := NewPath(1, 2, 3)
	b := NewPath(1, 2, 3)
	c := NewPath(1, 2)
	d := &ASPath{Segments: []Segment{{Type: ASSet, ASNs: []uint32{1, 2, 3}}}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal wrong")
	}
}

func TestEffectiveLocalPref(t *testing.T) {
	a := &Attrs{Path: EmptyPath}
	if a.EffectiveLocalPref() != 100 {
		t.Fatal("default LP != 100")
	}
	a.HasLP, a.LocalPref = true, 250
	if a.EffectiveLocalPref() != 250 {
		t.Fatal("explicit LP ignored")
	}
}

func TestAttrsWithHelpers(t *testing.T) {
	a := &Attrs{Path: NewPath(1), NextHop: 5}
	c := a.WithPath(NewPath(2))
	if c.Path.String() != "2" || a.Path.String() != "1" {
		t.Fatal("WithPath wrong")
	}
}

func TestAttrsString(t *testing.T) {
	a := &Attrs{Path: NewPath(6, 2, 1), NextHop: ip("10.0.0.1"), HasMED: true, MED: 5, Atomic: true}
	s := a.String()
	for _, want := range []string{"6 2 1", "10.0.0.1", "med=5", "atomic"} {
		if !contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "i" || OriginEGP.String() != "e" || OriginIncomplete.String() != "?" {
		t.Fatal("origin strings wrong")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

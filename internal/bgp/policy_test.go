package bgp

import "testing"

func u32(v uint32) *uint32 { return &v }

func TestPolicyNilPermitsAll(t *testing.T) {
	var pol *Policy
	a := &Attrs{Path: EmptyPath}
	got, ok := pol.Apply(pfx("10.0.0.0/8"), a)
	if !ok || got != a {
		t.Fatal("nil policy must permit unchanged")
	}
}

func TestPermitAllDenyAll(t *testing.T) {
	a := &Attrs{Path: EmptyPath}
	if _, ok := PermitAll.Apply(pfx("1.0.0.0/8"), a); !ok {
		t.Fatal("PermitAll denied")
	}
	denyAll := &Policy{Name: "deny-all", DefaultAction: Deny}
	if _, ok := denyAll.Apply(pfx("1.0.0.0/8"), a); ok {
		t.Fatal("a deny-all policy permitted")
	}
}

func TestPrefixMatchExactAndRange(t *testing.T) {
	p16 := pfx("10.1.0.0/16")
	pol := &Policy{
		Rules: []Rule{
			{Name: "exact", Match: Match{Prefix: &p16, Exact: true}, Action: Deny},
		},
		DefaultAction: Permit,
	}
	a := &Attrs{Path: EmptyPath}
	if _, ok := pol.Apply(pfx("10.1.0.0/16"), a); ok {
		t.Fatal("exact match missed")
	}
	if _, ok := pol.Apply(pfx("10.1.2.0/24"), a); !ok {
		t.Fatal("exact rule wrongly matched longer prefix")
	}

	// GE/LE range: match /24-/32 under 10.0.0.0/8.
	p8 := pfx("10.0.0.0/8")
	rangePol := &Policy{
		Rules:         []Rule{{Match: Match{Prefix: &p8, GE: 24, LE: 32}, Action: Deny}},
		DefaultAction: Permit,
	}
	if _, ok := rangePol.Apply(pfx("10.1.2.0/24"), a); ok {
		t.Fatal("/24 should match GE24")
	}
	if _, ok := rangePol.Apply(pfx("10.1.0.0/16"), a); !ok {
		t.Fatal("/16 should not match GE24")
	}
	if _, ok := rangePol.Apply(pfx("11.0.0.0/24"), a); !ok {
		t.Fatal("prefix outside 10/8 should not match")
	}
}

func TestPathContainsMatch(t *testing.T) {
	pol := &Policy{
		Rules:         []Rule{{Match: Match{PathContains: 65100}, Action: Deny}},
		DefaultAction: Permit,
	}
	via := &Attrs{Path: NewPath(65100, 1)}
	direct := &Attrs{Path: NewPath(1)}
	if _, ok := pol.Apply(pfx("1.0.0.0/8"), via); ok {
		t.Fatal("path-contains should deny")
	}
	if _, ok := pol.Apply(pfx("1.0.0.0/8"), direct); !ok {
		t.Fatal("path without AS should pass")
	}
	// A route with no path cannot match path-contains, so the deny rule is
	// skipped and the default permit applies.
	if _, ok := pol.Apply(pfx("1.0.0.0/8"), &Attrs{}); !ok {
		t.Fatal("nil path matched path-contains deny rule")
	}
}

func TestRewrites(t *testing.T) {
	pol := &Policy{
		Rules: []Rule{{
			Action:       Permit,
			SetLocalPref: u32(250),
			SetMED:       u32(9),
			PrependAS:    65001, PrependCount: 2,
		}},
		DefaultAction: Deny,
	}
	in := &Attrs{Path: NewPath(7)}
	out, ok := pol.Apply(pfx("1.0.0.0/8"), in)
	if !ok {
		t.Fatal("denied")
	}
	if out == in {
		t.Fatal("rewrite must copy")
	}
	if !out.HasLP || out.LocalPref != 250 || !out.HasMED || out.MED != 9 {
		t.Fatalf("rewrites wrong: %+v", out)
	}
	if out.Path.String() != "65001 65001 7" {
		t.Fatalf("prepend wrong: %q", out.Path.String())
	}
	if in.HasLP || in.Path.String() != "7" {
		t.Fatal("input mutated")
	}
}

func TestNoRewriteReturnsSamePointer(t *testing.T) {
	pol := &Policy{Rules: []Rule{{Action: Permit}}}
	in := &Attrs{Path: NewPath(1)}
	out, ok := pol.Apply(pfx("1.0.0.0/8"), in)
	if !ok || out != in {
		t.Fatal("permit without rewrites should return the same attrs")
	}
}

func TestFirstMatchWins(t *testing.T) {
	p8 := pfx("10.0.0.0/8")
	pol := &Policy{
		Rules: []Rule{
			{Match: Match{Prefix: &p8}, Action: Permit, SetLocalPref: u32(111)},
			{Match: Match{Prefix: &p8}, Action: Deny},
		},
		DefaultAction: Deny,
	}
	out, ok := pol.Apply(pfx("10.1.0.0/16"), &Attrs{Path: EmptyPath})
	if !ok || out.LocalPref != 111 {
		t.Fatal("first rule must win")
	}
}

func TestPolicyString(t *testing.T) {
	p8 := pfx("10.0.0.0/8")
	pol := &Policy{
		Name: "leak-guard",
		Rules: []Rule{
			{Name: "10", Match: Match{Prefix: &p8, Exact: true}, Action: Deny},
			{Name: "20", Match: Match{PathContains: 65100}, Action: Permit},
		},
		DefaultAction: Permit,
	}
	s := pol.String()
	for _, want := range []string{"route-map leak-guard", "deny 10 match 10.0.0.0/8 exact", "permit 20 match-as 65100", "default permit"} {
		if !contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

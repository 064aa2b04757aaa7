package bgp

import (
	"fmt"
	"strings"

	"crystalnet/internal/netpkt"
)

// Action is a policy rule verdict.
type Action uint8

// Rule actions.
const (
	Permit Action = iota
	Deny
)

// Match describes what a policy rule applies to. Zero-value fields are
// wildcards.
type Match struct {
	// Prefix matches routes covered by this prefix with length in
	// [GE, LE] (both zero means exact-or-longer up to /32 if GE/LE unset
	// and Exact false; Exact true requires an exact match).
	Prefix *netpkt.Prefix
	Exact  bool
	GE, LE uint8
	// PathContains matches routes whose AS path includes this ASN.
	PathContains uint32
	// OddThirdOctet24 matches /24 prefixes whose third octet is odd. No
	// operator writes this — it models the §2 firmware defect where a new
	// release "erroneously stopped announcing certain IP prefixes", and the
	// firmware package splices it into export policies as an injected bug.
	OddThirdOctet24 bool
}

// Matches reports whether the rule matches the route.
func (m *Match) Matches(p netpkt.Prefix, a *Attrs) bool {
	if m.Prefix != nil {
		if m.Exact {
			if p != *m.Prefix {
				return false
			}
		} else {
			if !m.Prefix.ContainsPrefix(p) {
				return false
			}
			ge, le := m.GE, m.LE
			if ge == 0 {
				ge = m.Prefix.Len
			}
			if le == 0 {
				le = 32
			}
			if p.Len < ge || p.Len > le {
				return false
			}
		}
	}
	if m.PathContains != 0 {
		if a == nil || a.Path == nil || !a.Path.Contains(m.PathContains) {
			return false
		}
	}
	if m.OddThirdOctet24 {
		if p.Len != 24 || (p.Addr>>8)&1 == 0 {
			return false
		}
	}
	return true
}

// Rule is one route-map entry: a match, a verdict, and attribute rewrites
// applied on Permit.
type Rule struct {
	Name   string
	Match  Match
	Action Action
	// Attribute rewrites, applied only when Action is Permit.
	SetLocalPref *uint32
	SetMED       *uint32
	PrependAS    uint32
	PrependCount int
}

// Policy is an ordered route-map. The first matching rule decides; routes
// matching no rule get DefaultAction.
type Policy struct {
	Name          string
	Rules         []Rule
	DefaultAction Action
}

// PermitAll is the implicit policy of an unfiltered session.
var PermitAll = &Policy{Name: "permit-all", DefaultAction: Permit}

// Apply evaluates the policy for a route. It returns the (possibly
// rewritten) attributes and whether the route is permitted. The input attrs
// are never mutated.
func (pol *Policy) Apply(p netpkt.Prefix, a *Attrs) (*Attrs, bool) {
	if pol == nil {
		return a, true
	}
	for i := range pol.Rules {
		r := &pol.Rules[i]
		if !r.Match.Matches(p, a) {
			continue
		}
		if r.Action == Deny {
			return a, false
		}
		return r.rewrite(a), true
	}
	return a, pol.DefaultAction == Permit
}

func (r *Rule) rewrite(a *Attrs) *Attrs {
	if r.SetLocalPref == nil && r.SetMED == nil && r.PrependCount == 0 {
		return a
	}
	c := a.editable()
	if r.SetLocalPref != nil {
		c.LocalPref, c.HasLP = *r.SetLocalPref, true
	}
	if r.SetMED != nil {
		c.MED, c.HasMED = *r.SetMED, true
	}
	for i := 0; i < r.PrependCount; i++ {
		c.Path = c.Path.Prepend(r.PrependAS)
	}
	return c
}

// prefixIndependent reports whether the policy's verdict and rewrites depend
// only on a route's attributes, never on its prefix. Such policies allow the
// per-peer export cache to key on the best-path attrs alone.
func (pol *Policy) prefixIndependent() bool {
	if pol == nil {
		return true
	}
	for i := range pol.Rules {
		m := &pol.Rules[i].Match
		if m.Prefix != nil || m.OddThirdOctet24 {
			return false
		}
	}
	return true
}

// String renders the policy in a config-like form.
func (pol *Policy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "route-map %s", pol.Name)
	for _, r := range pol.Rules {
		verb := "permit"
		if r.Action == Deny {
			verb = "deny"
		}
		fmt.Fprintf(&b, "\n  %s %s", verb, r.Name)
		if r.Match.Prefix != nil {
			fmt.Fprintf(&b, " match %s", r.Match.Prefix)
			if r.Match.Exact {
				b.WriteString(" exact")
			}
		}
		if r.Match.PathContains != 0 {
			fmt.Fprintf(&b, " match-as %d", r.Match.PathContains)
		}
	}
	if pol.DefaultAction == Permit {
		b.WriteString("\n  default permit")
	} else {
		b.WriteString("\n  default deny")
	}
	return b.String()
}

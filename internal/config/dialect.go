package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"crystalnet/internal/bgp"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
)

// Dialect identifies a vendor configuration language variant. Versions
// matter: the paper's §2 recounts a vendor changing its ACL argument order
// between releases, which this layer reproduces for CTNR-A 2.x.
type Dialect struct {
	Vendor  string
	Version string
}

// aclSwapped reports whether the dialect writes ACL entries as
// "<dst> <src>" instead of the classic "<src> <dst>" — the undocumented
// CTNR-A 2.x format change.
func (d Dialect) aclSwapped() bool {
	return d.Vendor == "ctnra" && strings.HasPrefix(d.Version, "2")
}

// neighborKeyword returns the dialect's spelling of "neighbor".
func (d Dialect) neighborKeyword() string {
	if d.Vendor == "vmb" {
		return "neighbour"
	}
	return "neighbor"
}

// maxPathsKeyword returns the dialect's ECMP statement.
func (d Dialect) maxPathsKeyword() string {
	if d.Vendor == "vma" {
		return "maximum-paths"
	}
	return "max-paths"
}

// Render serializes a device config in the given dialect.
func Render(c *DeviceConfig, d Dialect) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	w("hostname %s", c.Hostname)
	if c.Vendor != "" {
		w("vendor %s version %s", c.Vendor, c.Version)
	}
	w("asn %d", c.ASN)
	w("router-id %s", c.RouterID)
	if c.Credential != "" {
		w("credential %s", c.Credential)
	}
	for _, i := range c.Interfaces {
		w("interface %s address %s", i.Name, i.Addr)
	}
	for _, n := range c.Neighbors {
		line := fmt.Sprintf("bgp %s %s remote-as %d", d.neighborKeyword(), n.IP, n.RemoteAS)
		if n.Interface != "" {
			line += " interface " + n.Interface
		}
		if n.ImportPolicy != "" {
			line += " import " + n.ImportPolicy
		}
		if n.ExportPolicy != "" {
			line += " export " + n.ExportPolicy
		}
		if n.Desc != "" {
			line += " desc " + n.Desc
		}
		w("%s", line)
	}
	for _, p := range c.Networks {
		w("bgp network %s", p)
	}
	for _, a := range c.Aggregates {
		if a.SummaryOnly {
			w("bgp aggregate %s summary-only", a.Prefix)
		} else {
			w("bgp aggregate %s", a.Prefix)
		}
	}
	if c.MaxPaths != 0 {
		w("bgp %s %d", d.maxPathsKeyword(), c.MaxPaths)
	}

	names := make([]string, 0, len(c.RouteMaps))
	for name := range c.RouteMaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pol := c.RouteMaps[name]
		for i, r := range pol.Rules {
			verb := "permit"
			if r.Action == bgp.Deny {
				verb = "deny"
			}
			line := fmt.Sprintf("route-map %s %s %s", name, verb, ruleSeq(r.Name, i))
			if r.Match.Prefix != nil {
				line += " match " + r.Match.Prefix.String()
			}
			if r.Match.Exact {
				line += " exact"
			}
			if r.Match.GE != 0 || r.Match.LE != 0 {
				line += fmt.Sprintf(" ge %d le %d", r.Match.GE, r.Match.LE)
			}
			if r.Match.PathContains != 0 {
				line += fmt.Sprintf(" match-as %d", r.Match.PathContains)
			}
			if r.SetLocalPref != nil {
				line += fmt.Sprintf(" set-local-pref %d", *r.SetLocalPref)
			}
			if r.SetMED != nil {
				line += fmt.Sprintf(" set-med %d", *r.SetMED)
			}
			if r.PrependAS != 0 || r.PrependCount != 0 {
				line += fmt.Sprintf(" prepend %d %d", r.PrependAS, r.PrependCount)
			}
			w("%s", line)
		}
		def := "deny"
		if pol.DefaultAction == bgp.Permit {
			def = "permit"
		}
		w("route-map %s default %s", name, def)
	}

	aclNames := make([]string, 0, len(c.ACLs))
	for name := range c.ACLs {
		aclNames = append(aclNames, name)
	}
	sort.Strings(aclNames)
	for _, name := range aclNames {
		acl := c.ACLs[name]
		for _, r := range acl.Rules {
			verb := "permit"
			if r.Action == dataplane.ACLDeny {
				verb = "deny"
			}
			proto := "any"
			switch r.Proto {
			case netpkt.ProtoTCP:
				proto = "tcp"
			case netpkt.ProtoUDP:
				proto = "udp"
			case netpkt.ProtoICMP:
				proto = "icmp"
			}
			src, dst := prefixOrAny(r.Src), prefixOrAny(r.Dst)
			if d.aclSwapped() {
				src, dst = dst, src
			}
			line := fmt.Sprintf("acl %s %s %s %s %s", name, verb, proto, src, dst)
			if r.DstPort != 0 {
				line += fmt.Sprintf(" dport %d", r.DstPort)
			}
			if r.SrcPort != 0 {
				line += fmt.Sprintf(" sport %d", r.SrcPort)
			}
			w("%s", line)
		}
		def := "deny"
		if acl.DefaultAction == dataplane.ACLPermit {
			def = "permit"
		}
		w("acl %s default %s", name, def)
	}
	for _, bind := range c.Bindings {
		dir := "in"
		if bind.Direction == Out {
			dir = "out"
		}
		w("apply-acl %s %s %s", bind.ACLName, dir, bind.Interface)
	}
	return b.String()
}

func prefixOrAny(p *netpkt.Prefix) string {
	if p == nil {
		return "any"
	}
	return p.String()
}

// Parse reads a config text in the given dialect. Crucially, the dialect's
// parser interprets ACL argument order per ITS OWN version — feeding a 1.x
// text to a 2.x CTNR-A parser silently swaps src/dst, as in production.
func Parse(text string, d Dialect) (*DeviceConfig, error) {
	c := &DeviceConfig{
		RouteMaps: map[string]*bgp.Policy{},
		ACLs:      map[string]*dataplane.ACL{},
	}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if err := parseLine(c, d, f); err != nil {
			return nil, fmt.Errorf("line %d %q: %w", lineNo+1, line, err)
		}
	}
	return c, nil
}

func parseLine(c *DeviceConfig, d Dialect, f []string) error {
	switch f[0] {
	case "hostname":
		c.Hostname = arg(f, 1)
	case "vendor":
		c.Vendor = arg(f, 1)
		if arg(f, 2) == "version" {
			c.Version = arg(f, 3)
		}
	case "asn":
		v, err := strconv.ParseUint(arg(f, 1), 10, 32)
		if err != nil {
			return err
		}
		c.ASN = uint32(v)
	case "router-id":
		ip, err := netpkt.ParseIP(arg(f, 1))
		if err != nil {
			return err
		}
		c.RouterID = ip
	case "credential":
		c.Credential = arg(f, 1)
	case "interface":
		if arg(f, 2) != "address" {
			return fmt.Errorf("expected 'address'")
		}
		p, err := parseIfaceAddr(arg(f, 3))
		if err != nil {
			return err
		}
		c.Interfaces = append(c.Interfaces, InterfaceConfig{Name: arg(f, 1), Addr: p})
		if f[1] == "lo" {
			c.Loopback = p
		}
	case "bgp":
		return parseBGPLine(c, d, f[1:])
	case "route-map":
		return parseRouteMapLine(c, f[1:])
	case "acl":
		return parseACLLine(c, d, f[1:])
	case "apply-acl":
		if arg(f, 1) == "" {
			return fmt.Errorf("apply-acl needs an acl name")
		}
		dir := In
		if arg(f, 2) == "out" {
			dir = Out
		}
		c.Bindings = append(c.Bindings, ACLBinding{ACLName: arg(f, 1), Direction: dir, Interface: arg(f, 3)})
	default:
		return fmt.Errorf("unknown statement %q", f[0])
	}
	return nil
}

func parseBGPLine(c *DeviceConfig, d Dialect, f []string) error {
	switch arg(f, 0) {
	case "neighbor", "neighbour":
		ip, err := netpkt.ParseIP(arg(f, 1))
		if err != nil {
			return err
		}
		if arg(f, 2) != "remote-as" {
			return fmt.Errorf("expected remote-as")
		}
		asn, err := strconv.ParseUint(arg(f, 3), 10, 32)
		if err != nil {
			return err
		}
		n := BGPNeighbor{IP: ip, RemoteAS: uint32(asn)}
		for i := 4; i+1 < len(f); i += 2 {
			switch f[i] {
			case "interface":
				n.Interface = f[i+1]
			case "import":
				n.ImportPolicy = f[i+1]
			case "export":
				n.ExportPolicy = f[i+1]
			case "desc":
				n.Desc = f[i+1]
			}
		}
		c.Neighbors = append(c.Neighbors, n)
	case "network":
		p, err := netpkt.ParsePrefix(arg(f, 1))
		if err != nil {
			return err
		}
		c.Networks = append(c.Networks, p)
	case "aggregate":
		p, err := netpkt.ParsePrefix(arg(f, 1))
		if err != nil {
			return err
		}
		c.Aggregates = append(c.Aggregates, Aggregate{Prefix: p, SummaryOnly: arg(f, 2) == "summary-only"})
	case "max-paths", "maximum-paths":
		v, err := strconv.Atoi(arg(f, 1))
		if err != nil {
			return err
		}
		c.MaxPaths = v
	default:
		return fmt.Errorf("unknown bgp statement %q", arg(f, 0))
	}
	return nil
}

// ruleSeq is the sequence token of the i-th rule of a route-map: its name,
// or 10, 20, ... for a rule that has none.
func ruleSeq(name string, i int) string {
	if name != "" {
		return name
	}
	return strconv.Itoa((i + 1) * 10)
}

func parseRouteMapLine(c *DeviceConfig, f []string) error {
	name := arg(f, 0)
	if name == "" {
		return fmt.Errorf("route-map needs a name")
	}
	pol := c.RouteMaps[name]
	if pol == nil {
		pol = &bgp.Policy{Name: name}
		c.RouteMaps[name] = pol
	}
	if arg(f, 1) == "default" {
		if arg(f, 2) == "permit" {
			pol.DefaultAction = bgp.Permit
		} else {
			pol.DefaultAction = bgp.Deny
		}
		return nil
	}
	r := bgp.Rule{Name: ruleSeq(arg(f, 2), len(pol.Rules))}
	if arg(f, 1) == "deny" {
		r.Action = bgp.Deny
	}
	for i := 3; i < len(f); i++ {
		switch f[i] {
		case "match":
			p, err := netpkt.ParsePrefix(arg(f, i+1))
			if err != nil {
				return err
			}
			r.Match.Prefix = &p
			i++
		case "exact":
			r.Match.Exact = true
		case "ge":
			v, _ := strconv.Atoi(arg(f, i+1))
			r.Match.GE = uint8(v)
			i++
		case "le":
			v, _ := strconv.Atoi(arg(f, i+1))
			r.Match.LE = uint8(v)
			i++
		case "match-as":
			v, err := strconv.ParseUint(arg(f, i+1), 10, 32)
			if err != nil {
				return err
			}
			r.Match.PathContains = uint32(v)
			i++
		case "set-local-pref":
			v, _ := strconv.ParseUint(arg(f, i+1), 10, 32)
			lp := uint32(v)
			r.SetLocalPref = &lp
			i++
		case "set-med":
			v, _ := strconv.ParseUint(arg(f, i+1), 10, 32)
			med := uint32(v)
			r.SetMED = &med
			i++
		case "prepend":
			as, _ := strconv.ParseUint(arg(f, i+1), 10, 32)
			cnt, _ := strconv.Atoi(arg(f, i+2))
			r.PrependAS, r.PrependCount = uint32(as), cnt
			i += 2
		}
	}
	pol.Rules = append(pol.Rules, r)
	return nil
}

func parseACLLine(c *DeviceConfig, d Dialect, f []string) error {
	name := arg(f, 0)
	if name == "" {
		return fmt.Errorf("acl needs a name")
	}
	acl := c.ACLs[name]
	if acl == nil {
		acl = &dataplane.ACL{Name: name}
		c.ACLs[name] = acl
	}
	if arg(f, 1) == "default" {
		if arg(f, 2) == "permit" {
			acl.DefaultAction = dataplane.ACLPermit
		} else {
			acl.DefaultAction = dataplane.ACLDeny
		}
		return nil
	}
	r := dataplane.ACLRule{Action: dataplane.ACLPermit}
	if arg(f, 1) == "deny" {
		r.Action = dataplane.ACLDeny
	}
	switch arg(f, 2) {
	case "tcp":
		r.Proto = netpkt.ProtoTCP
	case "udp":
		r.Proto = netpkt.ProtoUDP
	case "icmp":
		r.Proto = netpkt.ProtoICMP
	case "any":
	default:
		return fmt.Errorf("unknown protocol %q", arg(f, 2))
	}
	first, second := arg(f, 3), arg(f, 4)
	// THE dialect trap: 2.x CTNR-A reads "<dst> <src>"; everything else
	// (including 1.x CTNR-A, whose configs are in the field) means
	// "<src> <dst>".
	srcStr, dstStr := first, second
	if d.aclSwapped() {
		srcStr, dstStr = second, first
	}
	var err error
	if r.Src, err = parsePrefixOrAny(srcStr); err != nil {
		return err
	}
	if r.Dst, err = parsePrefixOrAny(dstStr); err != nil {
		return err
	}
	for i := 5; i+1 < len(f); i += 2 {
		switch f[i] {
		case "dport":
			v, _ := strconv.Atoi(f[i+1])
			r.DstPort = uint16(v)
		case "sport":
			v, _ := strconv.Atoi(f[i+1])
			r.SrcPort = uint16(v)
		}
	}
	acl.Rules = append(acl.Rules, r)
	return nil
}

// parseIfaceAddr parses "a.b.c.d/len" WITHOUT masking host bits — an
// interface address keeps its host part (10.128.0.25/31 is the .25 end of
// the link), unlike a route prefix.
func parseIfaceAddr(s string) (netpkt.Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return netpkt.Prefix{}, fmt.Errorf("interface address %q missing /len", s)
	}
	ip, err := netpkt.ParseIP(s[:slash])
	if err != nil {
		return netpkt.Prefix{}, err
	}
	l, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || l > 32 {
		return netpkt.Prefix{}, fmt.Errorf("bad prefix length in %q", s)
	}
	return netpkt.Prefix{Addr: ip, Len: uint8(l)}, nil
}

func parsePrefixOrAny(s string) (*netpkt.Prefix, error) {
	if s == "any" {
		return nil, nil
	}
	p, err := netpkt.ParsePrefix(s)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

func arg(f []string, i int) string {
	if i >= len(f) {
		return ""
	}
	return f[i]
}

// Package mgmt implements CrystalNet's out-of-band management plane (§4.2,
// Figure 6): a jumpbox-rooted overlay joining every emulated device's
// management interface, DNS for management names, credentialed SSH-style
// sessions, and the per-vendor CLI operators' existing tools drive.
//
// Structure mirrors the paper: each VM has a management bridge VXLAN-
// tunneled to the Linux jumpbox (a tree, never an L2 mesh), and tools run
// on the jumpbox addressing devices by name or management IP — unchanged
// from production.
//
// DESIGN.md §2 (substrates) places the management overlay in the system
// inventory.
package mgmt

import (
	"fmt"
	"strings"

	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
)

// Plane is the management overlay rooted at the jumpbox.
type Plane struct {
	byName map[string]*endpoint
	byIP   map[netpkt.IP]*endpoint
}

type endpoint struct {
	dev  *firmware.Device
	ip   netpkt.IP
	cred string
}

// NewPlane returns an empty management plane (jumpbox only).
func NewPlane() *Plane {
	return &Plane{byName: map[string]*endpoint{}, byIP: map[netpkt.IP]*endpoint{}}
}

// Register attaches a device's management interface to its VM's bridge.
// The credential is the unified one Prepare injects into configs (§6.1).
func (p *Plane) Register(dev *firmware.Device, ip netpkt.IP, cred string) error {
	if _, dup := p.byName[dev.Name]; dup {
		return fmt.Errorf("mgmt: %s already registered", dev.Name)
	}
	if _, dup := p.byIP[ip]; dup {
		return fmt.Errorf("mgmt: management IP %s already in use", ip)
	}
	ep := &endpoint{dev: dev, ip: ip, cred: cred}
	p.byName[dev.Name] = ep
	p.byIP[ip] = ep
	return nil
}

// Resolve is the jumpbox DNS: device name to management IP.
func (p *Plane) Resolve(name string) (netpkt.IP, error) {
	ep, ok := p.byName[name]
	if !ok {
		return 0, fmt.Errorf("mgmt: NXDOMAIN %q", name)
	}
	return ep.ip, nil
}

// Session is an authenticated CLI session to one device.
type Session struct {
	ep *endpoint
}

// Dial opens a session to a management IP with the given credential —
// Telnet/SSH in production, and the same authentication semantics here.
func (p *Plane) Dial(ip netpkt.IP, cred string) (*Session, error) {
	ep, ok := p.byIP[ip]
	if !ok {
		return nil, fmt.Errorf("mgmt: no route to host %s", ip)
	}
	if ep.cred != cred {
		return nil, fmt.Errorf("mgmt: authentication failed for %s", ep.dev.Name)
	}
	if ep.dev.State() != firmware.DeviceRunning {
		return nil, fmt.Errorf("mgmt: %s unreachable (firmware %s)", ep.dev.Name, ep.dev.State())
	}
	return &Session{ep: ep}, nil
}

// DialByName resolves and dials in one step.
func (p *Plane) DialByName(name, cred string) (*Session, error) {
	ip, err := p.Resolve(name)
	if err != nil {
		return nil, err
	}
	return p.Dial(ip, cred)
}

// Exec runs one CLI command and returns its output. The command verb is
// vendor-dialect sensitive: CTNR/VM-A vendors use "show", VM-B uses
// "display" — exactly the heterogeneity operators' tools must cope with.
func (s *Session) Exec(cmd string) (string, error) {
	dev := s.ep.dev
	if dev.State() != firmware.DeviceRunning {
		return "", fmt.Errorf("mgmt: connection to %s lost", dev.Name)
	}
	f := strings.Fields(strings.TrimSpace(cmd))
	if len(f) == 0 {
		return "", nil
	}
	showVerb := "show"
	if dev.Image.Name == "vmb" {
		showVerb = "display"
	}
	switch f[0] {
	case showVerb:
		return s.execShow(f[1:])
	case "show", "display":
		return "", fmt.Errorf("%% unknown command %q (this is a %s device)", f[0], dev.Image.Name)
	case "neighbor":
		// neighbor <ip> shutdown
		if len(f) == 3 && f[2] == "shutdown" {
			ip, err := netpkt.ParseIP(f[1])
			if err != nil {
				return "", err
			}
			return s.shutdownNeighbor(ip)
		}
		return "", fmt.Errorf("%% usage: neighbor <ip> shutdown")
	case "shutdown":
		// Shut down the whole device — the footgun the §2 tool bug hit.
		dev.Stop("administrative shutdown via management plane")
		return "device halted", nil
	case "reload":
		dev.Reload(nil, nil)
		return "reload scheduled", nil
	default:
		return "", fmt.Errorf("%% unknown command %q", f[0])
	}
}

func (s *Session) shutdownNeighbor(ip netpkt.IP) (string, error) {
	dev := s.ep.dev
	if dev.BGP() == nil {
		return "", fmt.Errorf("%% BGP not running")
	}
	for _, peer := range dev.BGP().Peers() {
		if peer.Config.RemoteIP == ip {
			peer.Stop("administrative shutdown")
			return fmt.Sprintf("neighbor %s shutdown", ip), nil
		}
	}
	return "", fmt.Errorf("%% no neighbor %s", ip)
}

func (s *Session) execShow(f []string) (string, error) {
	dev := s.ep.dev
	if len(f) == 0 {
		return "", fmt.Errorf("%% incomplete command")
	}
	switch f[0] {
	case "version":
		return fmt.Sprintf("%s %s %s uptime-state %s", dev.Name, dev.Image.Name, dev.Image.Version, dev.State()), nil
	case "bgp":
		st := dev.PullStates()
		var b strings.Builder
		fmt.Fprintf(&b, "BGP router AS %d, %d prefixes\n", dev.Config().ASN, st.LocRIB)
		if dev.BGP() != nil {
			for _, peer := range dev.BGP().Peers() {
				fmt.Fprintf(&b, "neighbor %s as %d state %s pfx-rcvd %d\n",
					peer.Config.RemoteIP, peer.Config.RemoteAS, peer.State(), peer.AdjInLen())
			}
		}
		return b.String(), nil
	case "route":
		if dev.FIB() == nil {
			return "", fmt.Errorf("%% no forwarding table")
		}
		if len(f) > 1 {
			ip, err := netpkt.ParseIP(f[1])
			if err != nil {
				return "", err
			}
			e, ok := dev.FIB().Lookup(ip)
			if !ok {
				return "% network not in table", nil
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s via", e.Prefix)
			for _, nh := range e.NextHops {
				fmt.Fprintf(&b, " %s", nh)
			}
			fmt.Fprintf(&b, " [%s]", e.Proto)
			return b.String(), nil
		}
		return dev.FIB().Snapshot().String(), nil
	case "log":
		return strings.Join(dev.Logs, "\n"), nil
	case "interfaces":
		var b strings.Builder
		for _, ic := range dev.Config().Interfaces {
			fmt.Fprintf(&b, "%s %s\n", ic.Name, ic.Addr)
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("%% unknown show target %q", f[0])
	}
}

// Fork returns a copy of the plane with every endpoint's device pointer
// swapped via devOf (device name -> the forked emulation's device).
// Addressing and credentials are value state and copy directly; the source
// plane is read strictly read-only.
func (p *Plane) Fork(devOf func(name string) *firmware.Device) *Plane {
	c := &Plane{
		byName: make(map[string]*endpoint, len(p.byName)),
		byIP:   make(map[netpkt.IP]*endpoint, len(p.byIP)),
	}
	eps := make([]endpoint, 0, len(p.byName))
	for name, ep := range p.byName {
		eps = append(eps, endpoint{dev: devOf(name), ip: ep.ip, cred: ep.cred})
		ne := &eps[len(eps)-1]
		c.byName[name] = ne
		c.byIP[ep.ip] = ne
	}
	return c
}

// Package mgmt implements CrystalNet's out-of-band management plane (§4.2,
// Figure 6): sessions from the jumpbox to every emulated device, and the
// per-vendor CLI operators' existing tools drive.
//
// In the paper each VM has a management bridge VXLAN-tunneled to the Linux
// jumpbox (a tree, never an L2 mesh), and tools on the jumpbox reach
// devices by name, unchanged from production. The package keeps no copy of
// that tree: the emulation's own device map is the name service
// (core.Emulation.Login), and a session holds the device it reached, so a
// fork has nothing here to copy.
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

// Session is an authenticated CLI session to one device.
type Session struct {
	dev *firmware.Device
}

// Login opens a session to the device the jumpbox resolves name to — nil
// when the emulation runs no such device. Every device answers on the
// unified credential Prepare injects (§6.1), so the only checks left are
// the jumpbox DNS and that the firmware is up to answer.
func Login(name string, dev *firmware.Device) (*Session, error) {
	if dev == nil {
		return nil, fmt.Errorf("mgmt: NXDOMAIN %q", name)
	}
	if dev.State() != firmware.DeviceRunning {
		return nil, fmt.Errorf("mgmt: %s unreachable (firmware %s)", dev.Name, dev.State())
	}
	return &Session{dev: dev}, nil
}

// Exec runs one CLI command and returns its output. The command verb is
// vendor-dialect sensitive: CTNR/VM-A vendors use "show", VM-B uses
// "display" — exactly the heterogeneity operators' tools must cope with.
func (s *Session) Exec(cmd string) (string, error) {
	dev := s.dev
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
	dev := s.dev
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
	dev := s.dev
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

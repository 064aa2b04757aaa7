package mgmt

import (
	"strings"
	"testing"
	"time"

	"crystalnet/internal/config"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/topo"
)

const cred = "crystal-ops"

func build(t *testing.T) (*sim.Engine, *Plane, map[string]*firmware.Device) {
	n := topo.NewNetwork("pair")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	b := n.AddDevice("b", topo.LayerLeaf, 65002, "vmb")
	a.Originated = append(a.Originated, netpkt.MustParsePrefix("100.64.0.0/24"))
	n.Connect(a, b)

	eng := sim.NewEngine(1)
	fabric := phynet.NewFabric(eng, phynet.LinuxBridge)
	host := fabric.AddHost("vm-0")
	devs := map[string]*firmware.Device{}
	plane := NewPlane()
	containers := map[string]*phynet.Container{}
	for _, d := range n.Devices() {
		ct := host.AddContainer(d.Name)
		containers[d.Name] = ct
		for _, intf := range d.Interfaces {
			ct.AddIface(intf.Name, intf.MAC)
		}
	}
	for _, l := range n.Links {
		fabric.Connect(containers[l.A.Device.Name].Iface(l.A.Name), containers[l.B.Device.Name].Iface(l.B.Name))
	}
	for _, d := range n.Devices() {
		img := firmware.VendorImage{Name: d.Vendor, Version: "1", BootFixed: time.Second, BootJitter: time.Second}
		cfg := config.GenerateDevice(d)
		cfg.Credential = cred
		dev := firmware.New(d.Name, img, cfg, eng, fabric, containers[d.Name], nil, nil)
		devs[d.Name] = dev
		if err := plane.Register(dev, d.MgmtIP, cred); err != nil {
			t.Fatal(err)
		}
		dev.Boot(nil)
	}
	if _, err := eng.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	return eng, plane, devs
}

func TestResolveAndDial(t *testing.T) {
	_, plane, _ := build(t)
	ip, err := plane.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	s, err := plane.Dial(ip, cred)
	if err != nil {
		t.Fatal(err)
	}
	if s.ep.dev.Name != "a" {
		t.Fatal("wrong device")
	}
	if _, err := plane.Resolve("zz"); err == nil {
		t.Fatal("NXDOMAIN expected")
	}
	if _, err := plane.Dial(netpkt.MustParseIP("9.9.9.9"), cred); err == nil {
		t.Fatal("no route expected")
	}
	if _, err := plane.Dial(ip, "wrong"); err == nil {
		t.Fatal("auth failure expected")
	}
	if _, ok := plane.byName["a"]; !ok || len(plane.byName) != 2 {
		t.Fatalf("registered %d devices, want a and one more", len(plane.byName))
	}
}

func TestRegisterConflicts(t *testing.T) {
	_, plane, devs := build(t)
	if err := plane.Register(devs["a"], 999, cred); err == nil {
		t.Fatal("duplicate name accepted")
	}
	other := *devs["a"]
	other.Name = "x"
	ip, _ := plane.Resolve("a")
	if err := plane.Register(&other, ip, cred); err == nil {
		t.Fatal("duplicate IP accepted")
	}
}

func TestShowCommands(t *testing.T) {
	_, plane, _ := build(t)
	s, _ := plane.DialByName("a", cred)

	out, err := s.Exec("show version")
	if err != nil || !strings.Contains(out, "a test 1") {
		t.Fatalf("show version: %q %v", out, err)
	}
	out, err = s.Exec("show bgp")
	if err != nil || !strings.Contains(out, "BGP router AS 65001") || !strings.Contains(out, "state Established") {
		t.Fatalf("show bgp: %q %v", out, err)
	}
	out, err = s.Exec("show route " + netpkt.MustParseIP("10.0.0.2").String())
	if err != nil || !strings.Contains(out, "[bgp]") {
		t.Fatalf("show route: %q %v", out, err)
	}
	out, err = s.Exec("show route")
	if err != nil || !strings.Contains(out, "connected") {
		t.Fatalf("show route full: %q %v", out, err)
	}
	out, err = s.Exec("show interfaces")
	if err != nil || !strings.Contains(out, "lo ") {
		t.Fatalf("show interfaces: %q %v", out, err)
	}
	if _, err := s.Exec("show frobs"); err == nil {
		t.Fatal("unknown show target accepted")
	}
	if _, err := s.Exec("show"); err == nil {
		t.Fatal("bare show accepted")
	}
	if out, _ := s.Exec(""); out != "" {
		t.Fatal("empty command should be quiet")
	}
	if _, err := s.Exec("colorless green ideas"); err == nil {
		t.Fatal("nonsense accepted")
	}
	// Unrouted lookup.
	out, err = s.Exec("show route 203.0.113.9")
	if err != nil || !strings.Contains(out, "not in table") {
		t.Fatalf("missing route output: %q %v", out, err)
	}
}

func TestVendorCLIDialect(t *testing.T) {
	_, plane, _ := build(t)
	// b runs the vmb image: "display", not "show".
	s, err := plane.DialByName("b", cred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("show version"); err == nil {
		t.Fatal("vmb accepted 'show' — dialect divergence lost")
	}
	out, err := s.Exec("display version")
	if err != nil || !strings.Contains(out, "vmb") {
		t.Fatalf("display version: %q %v", out, err)
	}
}

func TestNeighborShutdownVsDeviceShutdown(t *testing.T) {
	eng, plane, devs := build(t)
	s, _ := plane.DialByName("a", cred)
	peerIP := devs["a"].Config().Neighbors[0].IP

	// Correct surgical action: one session down, device alive.
	if _, err := s.Exec("neighbor " + peerIP.String() + " shutdown"); err != nil {
		t.Fatal(err)
	}
	eng.Run(5_000_000)
	if devs["a"].State() != firmware.DeviceRunning {
		t.Fatal("device died from neighbor shutdown")
	}
	if devs["a"].PullStates().Established != 0 {
		t.Fatal("session still up")
	}
	if _, err := s.Exec("neighbor 9.9.9.9 shutdown"); err == nil {
		t.Fatal("unknown neighbor accepted")
	}

	// The §2 tool-bug action: whole device halted.
	if _, err := s.Exec("shutdown"); err != nil {
		t.Fatal(err)
	}
	if devs["a"].State() != firmware.DeviceStopped {
		t.Fatal("shutdown did not halt device")
	}
	// Session to a stopped device fails.
	if _, err := s.Exec("show version"); err == nil {
		t.Fatal("exec on halted device succeeded")
	}
	if _, err := plane.DialByName("a", cred); err == nil {
		t.Fatal("dial to halted device succeeded")
	}
}

func TestReloadViaCLI(t *testing.T) {
	eng, plane, devs := build(t)
	s, _ := plane.DialByName("a", cred)
	if _, err := s.Exec("reload"); err != nil {
		t.Fatal(err)
	}
	eng.Run(5_000_000)
	if devs["a"].State() != firmware.DeviceRunning {
		t.Fatal("device not back after reload")
	}
	if devs["a"].PullStates().Established != 1 {
		t.Fatal("session not re-established after reload")
	}
}

func TestShowLog(t *testing.T) {
	_, plane, _ := build(t)
	s, _ := plane.DialByName("a", cred)
	out, err := s.Exec("show log")
	if err != nil || !strings.Contains(out, "boot complete") {
		t.Fatalf("show log: %q %v", out, err)
	}
}

func TestExecAfterDeviceCrash(t *testing.T) {
	_, plane, devs := build(t)
	s, err := plane.DialByName("a", cred)
	if err != nil {
		t.Fatal(err)
	}
	devs["a"].Crash("test")
	if _, err := s.Exec("show version"); err == nil {
		t.Fatal("exec on crashed device succeeded")
	}
	if _, err := plane.DialByName("a", cred); err == nil {
		t.Fatal("dial to crashed device succeeded")
	}
}

func TestNeighborShutdownWithoutBGP(t *testing.T) {
	_, plane, devs := build(t)
	s, _ := plane.DialByName("a", cred)
	// Stop-and-restart strips the BGP instance briefly; calling into a
	// device whose BGP is gone must error cleanly, not panic.
	devs["a"].Stop("test")
	if _, err := s.Exec("neighbor 1.2.3.4 shutdown"); err == nil {
		t.Fatal("command on stopped device succeeded")
	}
}

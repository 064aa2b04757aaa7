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

func build(t *testing.T) (*sim.Engine, map[string]*firmware.Device) {
	n := topo.NewNetwork("pair")
	a := n.AddDevice("a", topo.LayerToR, 65001, "test")
	b := n.AddDevice("b", topo.LayerLeaf, 65002, "vmb")
	a.Originated = append(a.Originated, netpkt.MustParsePrefix("100.64.0.0/24"))
	n.Connect(a, b)

	eng := sim.NewEngine(1)
	fabric := phynet.NewFabric(eng, phynet.LinuxBridge)
	host := fabric.AddHost("vm-0")
	devs := map[string]*firmware.Device{}
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
		dev := firmware.New(d.Name, img, config.GenerateDevice(d), eng, fabric, containers[d.Name], nil, nil)
		devs[d.Name] = dev
		dev.Boot(nil)
	}
	if _, err := eng.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	return eng, devs
}

// login opens a session to devs[name] or fails the test.
func login(t *testing.T, devs map[string]*firmware.Device, name string) *Session {
	t.Helper()
	s, err := Login(name, devs[name])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoginOpensASessionOnARunningDevice(t *testing.T) {
	_, devs := build(t)
	if s := login(t, devs, "a"); s.dev != devs["a"] {
		t.Fatal("wrong device")
	}
	devs["b"].Stop("test")
	_, err := Login("b", devs["b"])
	if err == nil || err.Error() != "mgmt: b unreachable (firmware stopped)" {
		t.Fatalf("login to a stopped device: %v", err)
	}
}

func TestLoginNXDOMAIN(t *testing.T) {
	_, devs := build(t)
	_, err := Login("no-such-device", devs["no-such-device"])
	if err == nil || err.Error() != `mgmt: NXDOMAIN "no-such-device"` {
		t.Fatalf("login to an unknown name: %v", err)
	}
}

func TestNeighborCommandUsage(t *testing.T) {
	_, devs := build(t)
	s := login(t, devs, "a")
	if _, err := s.Exec("neighbor 10.0.0.2"); err == nil {
		t.Fatal("incomplete neighbor command accepted")
	}
	if _, err := s.Exec("neighbor 10.0.0.2 frobnicate"); err == nil {
		t.Fatal("unknown neighbor action accepted")
	}
	if _, err := s.Exec("neighbor not-an-ip shutdown"); err == nil {
		t.Fatal("unparseable neighbor IP accepted")
	}
	// show route with a bad address takes the parse-error path too.
	if _, err := s.Exec("show route not-an-ip"); err == nil {
		t.Fatal("unparseable route target accepted")
	}
}

func TestShowCommands(t *testing.T) {
	_, devs := build(t)
	s := login(t, devs, "a")

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
	_, devs := build(t)
	// b runs the vmb image: "display", not "show".
	s := login(t, devs, "b")
	if _, err := s.Exec("show version"); err == nil {
		t.Fatal("vmb accepted 'show' — dialect divergence lost")
	}
	out, err := s.Exec("display version")
	if err != nil || !strings.Contains(out, "vmb") {
		t.Fatalf("display version: %q %v", out, err)
	}
}

func TestNeighborShutdownVsDeviceShutdown(t *testing.T) {
	eng, devs := build(t)
	s := login(t, devs, "a")
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
	if _, err := Login("a", devs["a"]); err == nil {
		t.Fatal("dial to halted device succeeded")
	}
}

func TestReloadViaCLI(t *testing.T) {
	eng, devs := build(t)
	s := login(t, devs, "a")
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
	_, devs := build(t)
	s := login(t, devs, "a")
	out, err := s.Exec("show log")
	if err != nil || !strings.Contains(out, "boot complete") {
		t.Fatalf("show log: %q %v", out, err)
	}
}

func TestExecAfterDeviceCrash(t *testing.T) {
	_, devs := build(t)
	s := login(t, devs, "a")
	devs["a"].Crash("test")
	if _, err := s.Exec("show version"); err == nil {
		t.Fatal("exec on crashed device succeeded")
	}
	if _, err := Login("a", devs["a"]); err == nil {
		t.Fatal("dial to crashed device succeeded")
	}
}

func TestNeighborShutdownWithoutBGP(t *testing.T) {
	_, devs := build(t)
	s := login(t, devs, "a")
	// Stop-and-restart strips the BGP instance briefly; calling into a
	// device whose BGP is gone must error cleanly, not panic.
	devs["a"].Stop("test")
	if _, err := s.Exec("neighbor 1.2.3.4 shutdown"); err == nil {
		t.Fatal("command on stopped device succeeded")
	}
}

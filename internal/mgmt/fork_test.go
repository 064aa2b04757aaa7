package mgmt

import (
	"strings"
	"testing"

	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
)

func TestForkPlane(t *testing.T) {
	_, plane, devs := build(t)

	// Fork with a device map standing in for the forked emulation's
	// devices; here the "fork" maps names back to the same device set, but
	// via distinct endpoint records.
	fork := plane.Fork(func(name string) *firmware.Device { return devs[name] })

	// Addressing, credentials and the VM tree copy over.
	if len(fork.byName) != len(plane.byName) {
		t.Fatalf("fork registers %d devices, want %d", len(fork.byName), len(plane.byName))
	}
	for name := range plane.byName {
		if _, ok := fork.byName[name]; !ok {
			t.Fatalf("fork lost device %s", name)
		}
	}
	ipA, err := plane.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	ipF, err := fork.Resolve("a")
	if err != nil {
		t.Fatal(err)
	}
	if ipF != ipA {
		t.Fatalf("fork resolved a to %s, parent to %s", ipF, ipA)
	}

	// Sessions dialed on the fork authenticate and execute.
	s, err := fork.DialByName("a", cred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Exec("show version")
	if err != nil || !strings.Contains(out, "a test 1") {
		t.Fatalf("fork exec: %q %v", out, err)
	}
	if _, err := fork.Dial(ipA, "wrong"); err == nil {
		t.Fatal("fork accepted wrong credential")
	}

	// Registrations on the fork must not leak back into the parent.
	other := *devs["a"]
	other.Name = "fork-only"
	if err := fork.Register(&other, netpkt.MustParseIP("10.255.255.1"), cred); err != nil {
		t.Fatal(err)
	}
	if _, err := plane.Resolve("fork-only"); err == nil {
		t.Fatal("fork registration visible in parent plane")
	}
}

func TestNeighborCommandUsage(t *testing.T) {
	_, plane, _ := build(t)
	s, err := plane.DialByName("a", cred)
	if err != nil {
		t.Fatal(err)
	}
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

func TestDialByNameNXDOMAIN(t *testing.T) {
	_, plane, _ := build(t)
	if _, err := plane.DialByName("no-such-device", cred); err == nil {
		t.Fatal("DialByName to unknown name succeeded")
	}
}

package ospf

import (
	"reflect"
	"testing"
)

// FuzzOSPFPacket: DecodePacket never panics on arbitrary bytes, and an
// accepted Hello or LS Update re-marshals to bytes that decode to the same
// value.
func FuzzOSPFPacket(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalHello(&Hello{Router: ip("10.0.0.1"), Priority: 1}))
	f.Add(MarshalHello(&Hello{Router: ip("10.0.0.1"), Priority: 1, DR: ip("10.0.0.2"), BDR: ip("10.0.0.1"),
		Neighbors: []RouterID{ip("10.0.0.2"), ip("10.0.0.3")}}))
	f.Add(MarshalLSUpdate(ip("10.0.0.1"), nil))
	f.Add(MarshalLSUpdate(ip("10.0.0.1"), []*LSA{
		{Type: LSARouter, ID: ip("10.0.0.1"), Adv: ip("10.0.0.1"), Seq: 3, Links: []Link{
			{Type: LinkP2P, ID: ip("10.0.0.2"), Data: uint32(ip("172.16.0.1")), Cost: 10},
			{Type: LinkStub, ID: ip("10.1.0.0"), Data: 24, Cost: 1},
		}},
		{Type: LSANetwork, ID: ip("172.16.1.1"), Adv: ip("10.0.0.1"), Seq: 1, MaskLen: 24,
			Attached: []RouterID{ip("10.0.0.1"), ip("10.0.0.2")}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodePacket(data)
		if err != nil {
			return
		}
		var wire []byte
		switch d.Type {
		case PktHello:
			wire = MarshalHello(d.Hello)
		case PktLSUpdate:
			wire = MarshalLSUpdate(d.Router, d.LSAs)
		default:
			t.Fatalf("accepted packet type %d", d.Type)
		}
		again, err := DecodePacket(wire)
		if err != nil {
			t.Fatalf("re-marshaled packet rejected: %v", err)
		}
		if !reflect.DeepEqual(again, d) {
			t.Fatalf("round trip: decoded %+v, re-decoded %+v", d, again)
		}
	})
}

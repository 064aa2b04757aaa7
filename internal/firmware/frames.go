package firmware

import (
	"bytes"
	"encoding/binary"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/sim"
)

// arpRetryInterval and arpMaxAttempts bound next-hop resolution.
const (
	arpRetryInterval = 3 * time.Second
	arpMaxAttempts   = 5
)

// ipOff is where the IPv4 header of a frame the device builds starts: the
// frame is encoded behind netpkt.FrameHeadroom, so the Ethernet header and,
// on a cross-VM link, the underlay headers are written in front of it in the
// same buffer.
const ipOff = netpkt.FrameHeadroom - netpkt.IPv4HeaderLen

// sendBGP transmits the BGP message frame[netpkt.FrameHeadroom:] to the peer
// with the given index, writing its IPv4 header into the headroom in front.
// Only d.bgp calls it (bgpHooks), so the index names one of its peers.
// The message is the whole payload of a protocol-6 datagram, with no TCP
// header or port (BGP's 179): the byte-level codec runs on every hop, and
// the reliable virtual link stands in for TCP's reliable stream.
func (d *Device) sendBGP(peerIdx int, frame []byte) {
	pc := d.bgp.Peer(peerIdx).Config
	local, ok := d.ifaceAddr[pc.Interface]
	if !ok {
		return
	}
	d.BGPUpdatesSent++
	if netpkt.PutIPv4Header(frame[ipOff:], 0, 0, 64, netpkt.ProtoTCP, local.Addr, pc.RemoteIP, len(frame)-netpkt.FrameHeadroom) != nil {
		return
	}
	d.sendIPFrame(pc.Interface, pc.RemoteIP, frame, ipOff)
}

// sendIP encodes ip behind the frame headroom and routes it out of iface
// towards the on-link nextHop.
func (d *Device) sendIP(iface string, nextHop netpkt.IP, ip *netpkt.IPv4Packet) {
	if frame := ip.MarshalFramed(ipOff); frame != nil { // nil: too long for IPv4
		d.sendIPFrame(iface, nextHop, frame, ipOff)
	}
}

// sendIPFrame routes an IP packet out the given interface towards an on-link
// next hop, resolving its MAC via ARP (queueing while unresolved). buf is a
// single buffer holding the encoded IP packet at offset at (at least
// EthernetHeaderLen); the Ethernet header in front is filled in here once
// the MAC is known, and the fabric may use the headroom before that for the
// underlay, so the whole send path costs one allocation. Ownership of buf
// passes to the fabric (or, from the Ethernet header on, to the ARP pending
// queue).
func (d *Device) sendIPFrame(iface string, nextHop netpkt.IP, buf []byte, at int) {
	vi := d.container.Iface(iface)
	if vi == nil {
		return
	}
	eth := at - netpkt.EthernetHeaderLen
	mac, ok := d.arp.m[nextHop]
	if !ok {
		if d.arpPending == nil {
			d.arpPending = map[netpkt.IP][][]byte{}
		}
		d.arpPending[nextHop] = append(d.arpPending[nextHop], buf[eth:])
		d.requestARP(iface, nextHop, 0)
		return
	}
	netpkt.PutEthernetHeader(buf[eth:], mac, vi.MAC, netpkt.EtherTypeIPv4)
	d.fabric.SendFramed(vi, buf, eth)
}

// requestARP broadcasts an ARP request for target, retrying a few times.
func (d *Device) requestARP(iface string, target netpkt.IP, attempt int) {
	if attempt >= arpMaxAttempts {
		d.logf("arp: resolution of %s failed, dropping %d queued packets", target, len(d.arpPending[target]))
		delete(d.arpPending, target)
		return
	}
	if d.Image.Bugs.ARPRefreshBroken && d.epoch > 1 {
		// §2: after a peering/config change (reload), ARP refresh silently
		// stops working; queued packets rot.
		d.logf("BUG arp-refresh: suppressed ARP request for %s", target)
		return
	}
	if attempt > 0 && d.arpAttempts.m[target] >= attempt+1 {
		return // a concurrent resolution already progressed
	}
	d.arpAttempts.set(target, attempt+1)
	vi := d.container.Iface(iface)
	local, ok := d.ifaceAddr[iface]
	if vi == nil || !ok {
		return
	}
	req := &netpkt.ARPPacket{
		Op: netpkt.ARPRequest, SenderMAC: vi.MAC, SenderIP: local.Addr, TargetIP: target,
	}
	frame := &netpkt.EthernetFrame{Dst: netpkt.BroadcastMAC, Src: vi.MAC, EtherType: netpkt.EtherTypeARP, Payload: req.Marshal()}
	d.fabric.Send(vi, frame.Marshal())
	epoch := d.epoch
	d.eng.After(arpRetryInterval, func() {
		if d.epoch != epoch || d.state != DeviceRunning {
			return
		}
		if _, resolved := d.arp.m[target]; resolved {
			return
		}
		if len(d.arpPending[target]) == 0 {
			return
		}
		d.requestARP(iface, target, attempt+1)
	})
}

// handleFrame is the container's frame handler — the device's "NIC receive
// interrupt".
func (d *Device) handleFrame(iface string, data []byte) {
	if d.state != DeviceRunning {
		return
	}
	eth, err := netpkt.UnmarshalEthernet(data)
	if err != nil {
		return
	}
	vi := d.container.Iface(iface)
	if vi == nil {
		return
	}
	if !eth.Dst.IsBroadcast() && eth.Dst != vi.MAC {
		return // not for us
	}
	switch eth.EtherType {
	case netpkt.EtherTypeARP:
		d.handleARP(iface, vi.MAC, eth.Payload)
	case netpkt.EtherTypeIPv4:
		// Decoded in place: nothing below keeps the packet, only its payload.
		var ip netpkt.IPv4Packet
		if ip.Unmarshal(eth.Payload) != nil {
			return
		}
		d.handleIP(iface, &ip)
	}
}

func (d *Device) handleARP(iface string, myMAC netpkt.MAC, payload []byte) {
	if d.Image.Bugs.ARPTrapBroken {
		// §7 Case 2: the dev build's ASIC lacks the ARP trap entry, so the
		// frame never reaches the CPU.
		return
	}
	if d.Image.Bugs.ARPRefreshBroken && d.epoch > 1 {
		// §2: after a peering-configuration change the ARP machinery wedges
		// entirely — stale cache entries keep old sessions alive, but no
		// new resolution happens in either direction.
		return
	}
	arp, err := netpkt.UnmarshalARP(payload)
	if err != nil {
		return
	}
	local, ok := d.ifaceAddr[iface]
	if !ok {
		return
	}
	switch arp.Op {
	case netpkt.ARPRequest:
		if arp.TargetIP != local.Addr {
			return
		}
		// Learn the asker and reply.
		d.learnARP(arp.SenderIP, arp.SenderMAC)
		reply := &netpkt.ARPPacket{
			Op: netpkt.ARPReply, SenderMAC: myMAC, SenderIP: local.Addr,
			TargetMAC: arp.SenderMAC, TargetIP: arp.SenderIP,
		}
		vi := d.container.Iface(iface)
		frame := &netpkt.EthernetFrame{Dst: arp.SenderMAC, Src: myMAC, EtherType: netpkt.EtherTypeARP, Payload: reply.Marshal()}
		d.fabric.Send(vi, frame.Marshal())
	case netpkt.ARPReply:
		d.learnARP(arp.SenderIP, arp.SenderMAC)
	}
}

// learnARP caches a binding and flushes packets queued on it.
func (d *Device) learnARP(ip netpkt.IP, mac netpkt.MAC) {
	d.arp.set(ip, mac)
	d.arpAttempts.del(ip)
	pending := d.arpPending[ip]
	if len(pending) == 0 {
		return
	}
	delete(d.arpPending, ip)
	// Re-route each queued frame now that the next hop resolves. The
	// egress interface is recomputed (the FIB may have moved meanwhile).
	for _, frame := range pending {
		iface := d.ifaceForOnLink(ip)
		if iface == "" {
			continue
		}
		d.sendIPFrame(iface, ip, frame, netpkt.EthernetHeaderLen)
	}
}

// ifaceForOnLink returns the first configured interface whose subnet covers
// the on-link IP.
func (d *Device) ifaceForOnLink(ip netpkt.IP) string {
	for _, ic := range d.cfg.Interfaces {
		sub := netpkt.Prefix{Addr: ic.Addr.Addr & ic.Addr.MaskIP(), Len: ic.Addr.Len}
		if sub.Contains(ip) && ic.Name != "lo" {
			return ic.Name
		}
	}
	return ""
}

// handleIP dispatches a received IP packet: local control-plane delivery or
// data-plane forwarding.
func (d *Device) handleIP(iface string, ip *netpkt.IPv4Packet) {
	if flow, seq, ok := telemetrySignature(ip); ok {
		// Capture at ingress with the forwarding decision (§3.3).
		meta := metaFromIP(ip)
		dec := d.fwd.Forward(iface, meta)
		d.capture(iface, flow, seq, *meta, dec)
		if dec.Verdict != dataplane.VerdictForward {
			return
		}
		d.emitForward(ip, dec)
		return
	}

	if d.fwd.IsLocal(ip.Dst) {
		// Terminates here (a BGP message, a ping): no forwarding
		// decision, so no 5-tuple.
		d.handleLocal(ip)
		return
	}
	dec := d.fwd.Forward(iface, metaFromIP(ip))
	if dec.Verdict != dataplane.VerdictForward {
		return
	}
	d.emitForward(ip, dec)
}

// emitForward decrements TTL, re-encodes and transmits toward the decided
// next hop.
func (d *Device) emitForward(ip *netpkt.IPv4Packet, dec dataplane.Decision) {
	out := *ip
	out.TTL--
	nh := dec.NextHop
	if nh == 0 {
		nh = ip.Dst // directly connected destination
	}
	d.sendIP(dec.Egress, nh, &out)
}

// handleLocal terminates a packet addressed to the device.
func (d *Device) handleLocal(ip *netpkt.IPv4Packet) {
	switch ip.Protocol {
	case netpkt.ProtoTCP:
		// BGP: look up the session by remote address.
		if d.bgp == nil {
			return
		}
		i, ok := d.peerByIP[ip.Src]
		if !ok {
			return
		}
		peer := d.bgp.Peer(i)
		// The payload can be retained across the deferred processing without
		// a copy: fabric frame buffers are never recycled (see Fabric.Send).
		data := ip.Payload
		// Control-plane processing consumes VM CPU: base cost plus
		// per-route cost approximated from message size.
		work := d.Image.MsgWork + d.Image.RouteWork*float64(len(data))/5
		d.submitRx(work, rxMsg{peer: peer, data: data, epoch: d.epoch})
	case netpkt.ProtoICMP:
		icmp, err := netpkt.UnmarshalICMP(ip.Payload)
		if err != nil || icmp.Type != netpkt.ICMPEchoRequest {
			return
		}
		reply := &netpkt.ICMPMessage{Type: netpkt.ICMPEchoReply, ID: icmp.ID, Seq: icmp.Seq, Payload: icmp.Payload}
		out := &netpkt.IPv4Packet{
			TTL: 64, Protocol: netpkt.ProtoICMP,
			Src: ip.Dst, Dst: ip.Src, Payload: reply.Marshal(),
		}
		d.sendFromSelf(out)
	}
}

// rxMsg is a received BGP message waiting out the VM CPU time charged for
// processing it: a lane item, so receiving a message allocates no closure.
type rxMsg struct {
	peer  *bgp.Peer
	data  []byte
	epoch int
}

// submitRx charges coreSeconds of CPU for processing m, as submit does, and
// queues m's processing for when that work completes on the device's lane
// for the core it runs on: a core's completion times never decrease, so
// each lane is in time order (sim.Lane).
func (d *Device) submitRx(coreSeconds float64, m rxMsg) {
	core, at := 0, d.eng.Now()
	if d.vm != nil {
		core, at = d.vm.Reserve(at, coreSeconds)
	}
	for len(d.rxLanes) <= core {
		d.rxLanes = append(d.rxLanes, sim.NewLane(d.eng, d.handleRx))
	}
	d.rxLanes[core].At(at, m)
}

// handleRx processes a received message, unless the device rebooted or went
// down since it arrived.
func (d *Device) handleRx(m rxMsg) {
	if d.epoch != m.epoch || d.state != DeviceRunning {
		return
	}
	m.peer.HandleMessage(m.data)
}

// sendFromSelf routes a locally originated packet.
func (d *Device) sendFromSelf(ip *netpkt.IPv4Packet) {
	meta := metaFromIP(ip)
	dec := d.fwd.Forward("", meta)
	if dec.Verdict != dataplane.VerdictForward {
		return
	}
	nh := dec.NextHop
	if nh == 0 {
		nh = ip.Dst
	}
	d.sendIP(dec.Egress, nh, ip)
}

// InjectPacket originates a telemetry probe from this device (the
// InjectPackets API, §3.3). The probe is a UDP datagram carrying the
// telemetry signature; every device it traverses captures it.
func (d *Device) InjectPacket(meta dataplane.PacketMeta, flow uint64, seq uint32) {
	if d.state != DeviceRunning {
		return
	}
	payload := make([]byte, len(TelemetryMagic)+12)
	copy(payload, TelemetryMagic)
	binary.BigEndian.PutUint64(payload[len(TelemetryMagic):], flow)
	binary.BigEndian.PutUint32(payload[len(TelemetryMagic)+8:], seq)
	udp := &netpkt.UDPDatagram{SrcPort: meta.SrcPort, DstPort: meta.DstPort, Payload: payload}
	ip := &netpkt.IPv4Packet{
		TTL: meta.TTL, Protocol: netpkt.ProtoUDP,
		Src: meta.Src, Dst: meta.Dst,
		Payload: udp.Marshal(),
	}
	dec := d.fwd.Forward("", metaFromIP(ip))
	d.capture("", flow, seq, meta, dec)
	if dec.Verdict != dataplane.VerdictForward {
		return
	}
	d.emitForward(ip, dec)
}

// capture records a telemetry observation.
func (d *Device) capture(iface string, flow uint64, seq uint32, meta dataplane.PacketMeta, dec dataplane.Decision) {
	d.Captures = append(d.Captures, CaptureRecord{
		Time: d.eng.Now(), Device: d.Name,
		FlowID: flow, Seq: seq,
		Iface: iface, Verdict: dec.Verdict, Egress: dec.Egress,
		Meta: meta,
	})
}

// PullPackets drains and returns the capture buffer (§3.3 PullPackets with
// clean-after-pull).
func (d *Device) PullPackets() []CaptureRecord {
	out := d.Captures
	d.Captures = nil
	return out
}

// telemetrySignature extracts (flow, seq) if the packet is a telemetry
// probe.
func telemetrySignature(ip *netpkt.IPv4Packet) (uint64, uint32, bool) {
	if ip.Protocol != netpkt.ProtoUDP {
		return 0, 0, false
	}
	udp, err := netpkt.UnmarshalUDP(ip.Payload)
	if err != nil || len(udp.Payload) < len(TelemetryMagic)+12 {
		return 0, 0, false
	}
	if !bytes.HasPrefix(udp.Payload, TelemetryMagic) {
		return 0, 0, false
	}
	flow := binary.BigEndian.Uint64(udp.Payload[len(TelemetryMagic):])
	seq := binary.BigEndian.Uint32(udp.Payload[len(TelemetryMagic)+8:])
	return flow, seq, true
}

// metaFromIP derives the forwarding 5-tuple, pulling ports from UDP
// payloads.
func metaFromIP(ip *netpkt.IPv4Packet) *dataplane.PacketMeta {
	m := &dataplane.PacketMeta{Src: ip.Src, Dst: ip.Dst, Proto: ip.Protocol, TTL: ip.TTL}
	if ip.Protocol == netpkt.ProtoUDP {
		if udp, err := netpkt.UnmarshalUDP(ip.Payload); err == nil {
			m.SrcPort, m.DstPort = udp.SrcPort, udp.DstPort
		}
	}
	return m
}

// Stats is the PullStates payload for one device.
type Stats struct {
	Name        string
	State       DeviceState
	FIBLen      int
	LocRIB      int
	Established int
	Flaps       int
	MsgsSent    uint64
}

// PullStates summarizes device state (§3.3 PullStates).
func (d *Device) PullStates() Stats {
	st := Stats{Name: d.Name, State: d.state, Flaps: d.flaps, MsgsSent: d.BGPUpdatesSent}
	if d.fib != nil {
		st.FIBLen = d.fib.Len()
	}
	if d.bgp != nil {
		bs := d.bgp.Stats()
		st.LocRIB = bs.LocRIB
		st.Established = bs.Established
	}
	return st
}

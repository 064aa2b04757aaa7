// Package firmware implements the emulated device runtime: the "vendor
// image" that boots inside a PhyNet container sandbox, speaks BGP/OSPF over
// the virtual links, programs a FIB, forwards data-plane packets, and
// exhibits the vendor-specific behaviours and injectable bugs that make
// CrystalNet "bug compatible" with production (§2, §7).
//
// Real CrystalNet runs unmodified vendor binaries; this package is the
// synthetic equivalent: four vendor images built on a shared runtime whose
// divergences are exactly the documented incident classes (aggregation
// AS-path selection, FIB-overflow handling, ARP trap bugs, default-route
// bugs, crash-on-flap). The §2 ACL dialect drift lives at the config layer
// (internal/config's renderers and parsers), not in these images.
//
// DESIGN.md §1 records the synthetic-firmware substitution; §4 lists the
// per-vendor divergences.
package firmware

import (
	"fmt"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/cloud"
	"crystalnet/internal/config"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/obs"
	"crystalnet/internal/ospf"
	"crystalnet/internal/p4"
	"crystalnet/internal/phynet"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// ImageKind distinguishes container images from VM images (§4.1: VM images
// need nested virtualization and boot slower).
type ImageKind uint8

// Image kinds.
const (
	ContainerImage ImageKind = iota
	VMImage
	// HardwareDevice marks a real switch plugged into the emulation through
	// a fanout server (§4.1): it runs on its own silicon (no cloud VM, no
	// shared-CPU contention) and is reached across the Internet overlay.
	HardwareDevice
)

// AsHardware converts a vendor image into its physical-switch incarnation:
// the box is already racked and powered, so "boot" is just the firmware
// restart, and its CPU is its own (no BootWork on any VM).
func AsHardware(img VendorImage) VendorImage {
	img.Kind = HardwareDevice
	img.BootFixed = 30 * time.Second
	img.BootJitter = 15 * time.Second
	img.BootWork = 0
	return img
}

// Bugs is the injectable-bug registry of a vendor image. Every field maps
// to an incident class from Table 1 or §7 Case 2.
type Bugs struct {
	// StopAnnouncingOddPrefixes makes the export path silently skip /24
	// prefixes whose third octet is odd — "new router firmware erroneously
	// stopped announcing certain IP prefixes" (§2).
	StopAnnouncingOddPrefixes bool
	// SilentFIBOverflow drops routes on a full FIB without reporting —
	// the §2 load-balancer black-hole incident.
	SilentFIBOverflow bool
	// ARPTrapBroken stops the ASIC from trapping ARP to the CPU, so the
	// device never answers ARP — §7 Case 2.
	ARPTrapBroken bool
	// DefaultRouteBroken fails to program 0.0.0.0/0 learned from BGP —
	// §7 Case 2.
	DefaultRouteBroken bool
	// CrashAfterFlaps crashes the firmware after this many BGP session
	// flaps (0 disables) — §7 Case 2.
	CrashAfterFlaps int
	// ARPRefreshBroken stops ARP resolution for new next hops after a
	// reload — "ARP refreshing failed when peering configuration was
	// changed" (§2).
	ARPRefreshBroken bool
}

// VendorImage describes a bootable device software image.
type VendorImage struct {
	Name    string
	Version string
	Kind    ImageKind
	// BootFixed is the non-CPU part of boot (image pull, init scripts);
	// BootJitter randomizes it. BootWork is CPU core-seconds consumed on
	// the hosting VM (contended across collocated devices).
	BootFixed  time.Duration
	BootJitter time.Duration
	BootWork   float64
	// AggregationMode is the Figure 1 vendor divergence.
	AggregationMode bgp.AggregationASPathMode
	// FIBCapacity limits the hardware table (0 = unlimited).
	FIBCapacity int
	// MsgWork/RouteWork model control-plane CPU cost per message and per
	// prefix processed.
	MsgWork   float64
	RouteWork float64
	// StaticSpeaker marks the boundary-speaker image: sessions only ever
	// announce locally injected routes (§5.1).
	StaticSpeaker bool
	// NonDeterministicTies marks firmware whose BGP tie-break depends on
	// announcement arrival order — the §9 behaviour the FIB comparator
	// must tolerate.
	NonDeterministicTies bool
	// SoftASIC runs the image's control-plane trap path through a P4
	// behavioural-model pipeline (the §6.2 BMv2 integration for the
	// open-source OS); the ARP-trap bug then manifests as a missing
	// pipeline entry rather than a hardcoded branch.
	SoftASIC bool
	Bugs     Bugs
}

// DeviceState is the firmware lifecycle state.
type DeviceState uint8

// Firmware lifecycle states.
const (
	DeviceStopped DeviceState = iota
	DeviceBooting
	DeviceRunning
	DeviceCrashed
)

var deviceStateNames = [...]string{"stopped", "booting", "running", "crashed"}

// String returns the state name.
func (s DeviceState) String() string {
	if int(s) < len(deviceStateNames) {
		return deviceStateNames[s]
	}
	return "unknown"
}

// CaptureRecord is one packet observation for the telemetry pipeline
// (§3.3: devices capture signature-matched packets).
type CaptureRecord struct {
	Time    sim.Time
	Device  string
	FlowID  uint64
	Seq     uint32
	Iface   string // ingress interface ("" for locally injected)
	Verdict dataplane.Verdict
	Egress  string
	Meta    dataplane.PacketMeta
}

// TelemetryMagic tags injected packets (§3.3 "pre-defined signature").
var TelemetryMagic = []byte("CNETTLM1")

// ServerIface is the pseudo-interface originated server subnets resolve to;
// packets forwarded to it have reached their rack.
const ServerIface = "servers"

// Device is one emulated network device.
type Device struct {
	Name  string
	Image VendorImage

	eng       *sim.Engine
	fabric    *phynet.Fabric
	container *phynet.Container
	vm        *cloud.VM // nil in unit tests
	// attrs is the emulation's BGP attribute table, handed to every router
	// the device boots (nil in unit tests: each router then keeps its own).
	attrs *bgp.AttrTable

	cfg   *config.DeviceConfig
	state DeviceState
	epoch int // moves on per boot, stop and crash; stale timers and hooks check it

	fib *rib.FIB
	fwd *dataplane.Forwarder
	bgp *bgp.Router
	osp *ospf.Instance

	// A boot builds these three in fresh maps and nothing writes them
	// afterwards, so a fork shares them with its parent outright. peerByIP
	// is a BGP session's index by remote address.
	peerByIP   map[netpkt.IP]int
	ifaceAddr  map[string]netpkt.Prefix
	ospfIfaces map[string]int
	// The ARP cache and resolution attempts are shared with a checkpoint's
	// forks until written (cowMap). Queued frames' IP payloads wait in
	// arpPending, nil until one does.
	arp         cowMap[netpkt.IP, netpkt.MAC]
	arpPending  map[netpkt.IP][][]byte
	arpAttempts cowMap[netpkt.IP, int]

	flaps int

	// rxLanes queue received BGP messages for processing, one lane per core
	// of the hosting VM, on the device's engine (see submitRx).
	rxLanes []*sim.Lane[rxMsg]

	// asic is the P4 trap pipeline for SoftASIC images (nil otherwise).
	asic *p4.Program

	// Captures accumulates signature-matched packet observations until
	// PullPackets drains them.
	Captures []CaptureRecord
	// Logs accumulate device syslog-style lines. The slice is append-only:
	// a fork shares the lines written before it (Fork).
	Logs []string

	// BGPUpdatesSent counts control-plane messages for the CPU model and
	// monitoring.
	BGPUpdatesSent uint64
	// LastFIBChange is the virtual time of the most recent FIB mutation —
	// the orchestrator's route-ready detector (§8.1) reads it after the
	// network quiesces.
	LastFIBChange sim.Time
}

// AssignVM re-points the device's CPU work at a different VM. The
// orchestration layer uses it when a failed VM is replaced rather than
// rebooted: subsequent boot/route work must be charged to the VM that
// actually hosts the container now.
func (d *Device) AssignVM(vm *cloud.VM) { d.vm = vm }

// New creates a stopped device bound to a PhyNet container. The container's
// interfaces must already exist (the PhyNet layer owns them). vm, when
// non-nil, is the cloud VM the device's CPU work is charged to; attrs, when
// non-nil, is the emulation's attribute table its BGP routers intern into
// (bgp.New).
func New(name string, image VendorImage, cfg *config.DeviceConfig,
	eng *sim.Engine, fabric *phynet.Fabric, container *phynet.Container, vm *cloud.VM, attrs *bgp.AttrTable) *Device {
	return &Device{
		Name: name, Image: image, cfg: cfg,
		eng: eng, fabric: fabric, container: container, vm: vm, attrs: attrs,
	}
}

// State returns the firmware lifecycle state.
func (d *Device) State() DeviceState { return d.state }

// Config returns the active configuration.
func (d *Device) Config() *config.DeviceConfig { return d.cfg }

// FIB returns the device's forwarding table (nil until running).
func (d *Device) FIB() *rib.FIB { return d.fib }

// Forwarder returns the device's live forwarding engine (nil until running,
// and nil again after Stop/Crash). The traffic plane settles flow
// aggregates against it directly — a stopped device blackholes its flows.
func (d *Device) Forwarder() *dataplane.Forwarder { return d.fwd }

// BGP returns the device's BGP router (nil until running).
func (d *Device) BGP() *bgp.Router { return d.bgp }

// Reattach rebinds the device to a (re)built container — used after a VM
// recovery or a strawman reload recreates the namespace. A running device
// resumes receiving frames immediately.
func (d *Device) Reattach(c *phynet.Container) {
	d.container = c
	if d.state == DeviceRunning {
		c.Attach(d.handleFrame)
	}
}

// logf appends to the device log.
func (d *Device) logf(format string, args ...any) {
	d.Logs = append(d.Logs, fmt.Sprintf("[%s] ", d.eng.Now())+fmt.Sprintf(format, args...))
}

// submit runs CPU work on the hosting VM (or immediately without one). The
// completion event is scheduled on the device's own engine, which in a
// sharded emulation is its domain engine rather than the master.
func (d *Device) submit(coreSeconds float64, fn func()) {
	if d.vm != nil {
		d.vm.SubmitOn(d.eng, coreSeconds, fn)
		return
	}
	if fn != nil {
		d.eng.After(0, fn)
	}
}

// Boot starts the firmware: after the image's boot latency and CPU work,
// the device attaches to its container, programs connected routes and
// starts its routing protocols. onReady (optional) fires when Running.
func (d *Device) Boot(onReady func()) {
	if d.state == DeviceBooting || d.state == DeviceRunning {
		return
	}
	d.state = DeviceBooting
	d.epoch++
	epoch := d.epoch
	start := d.eng.Now()
	fixed := d.eng.Jitter(d.Image.BootFixed, d.Image.BootJitter)
	d.eng.After(fixed, func() {
		if d.epoch != epoch || d.state != DeviceBooting {
			return
		}
		d.submit(d.Image.BootWork, func() {
			if d.epoch != epoch || d.state != DeviceBooting {
				return
			}
			d.finishBoot()
			d.eng.Recorder().SpanAt("boot", d.Name, int64(start), int64(d.eng.Now()))
			if onReady != nil {
				onReady()
			}
		})
	})
}

// finishBoot brings the control plane up.
func (d *Device) finishBoot() {
	d.state = DeviceRunning
	d.fib = rib.NewFIB()
	d.fib.Capacity = d.Image.FIBCapacity
	seed := uint32(d.eng.Rand().Int63())
	d.peerByIP, d.ospfIfaces = nil, nil
	if !d.Image.Bugs.ARPRefreshBroken {
		d.arp = cowMap[netpkt.IP, netpkt.MAC]{}
	}
	d.arpPending, d.arpAttempts = nil, cowMap[netpkt.IP, int]{}
	if d.Image.SoftASIC {
		// Program the behavioural-model ASIC: a buggy build simply lacks
		// the ARP trap entry (§7 Case 2).
		d.asic = p4.TrapProgram(!d.Image.Bugs.ARPTrapBroken, true)
	}
	d.logf("%s %s (%s) boot complete", d.Image.Name, d.Image.Version, d.Name)

	// Connected routes + local addresses.
	ifaceAddr := make(map[string]netpkt.Prefix, len(d.cfg.Interfaces))
	local := make(map[netpkt.IP]bool, len(d.cfg.Interfaces))
	for _, ic := range d.cfg.Interfaces {
		ifaceAddr[ic.Name] = ic.Addr
		local[ic.Addr.Addr] = true
		subnet := netpkt.Prefix{Addr: ic.Addr.Addr & ic.Addr.MaskIP(), Len: ic.Addr.Len}
		d.fib.Install(&rib.Entry{
			Prefix: subnet, Proto: rib.ProtoConnected,
			NextHops: []rib.NextHop{{Interface: ic.Name}},
		})
	}
	// Originated server subnets (a ToR's racks) are attached networks: they
	// resolve out of the "servers" attachment point so probes to them
	// terminate at this device instead of falling off the FIB.
	for _, p := range d.cfg.Networks {
		if p == d.cfg.Loopback {
			continue
		}
		if _, exists := d.fib.Get(p); exists {
			continue
		}
		d.fib.Install(&rib.Entry{
			Prefix: p, Proto: rib.ProtoConnected,
			NextHops: []rib.NextHop{{Interface: ServerIface}},
		})
	}
	d.ifaceAddr = ifaceAddr
	// ACL bindings.
	in, out := map[string]*dataplane.ACL{}, map[string]*dataplane.ACL{}
	for _, b := range d.cfg.Bindings {
		if b.Direction == config.In {
			in[b.Interface] = d.cfg.ACLs[b.ACLName]
		} else {
			out[b.Interface] = d.cfg.ACLs[b.ACLName]
		}
	}
	d.fwd = dataplane.NewForwarder(d.fib, seed, local, in, out)

	d.startBGP()
	d.startOSPF()

	// Attach to the namespace last: the device now receives frames.
	d.container.Attach(d.handleFrame)
}

// startBGP builds the BGP router from the config and begins session
// bring-up with retries.
func (d *Device) startBGP() {
	if len(d.cfg.Neighbors) == 0 && len(d.cfg.Networks) == 0 {
		return
	}
	rcfg := bgp.Config{
		Name: d.Name, AS: d.cfg.ASN, RouterID: d.cfg.RouterID,
		MaxPaths:             d.cfg.MaxPaths,
		AggregationMode:      d.Image.AggregationMode,
		NonDeterministicTies: d.Image.NonDeterministicTies,
	}
	for _, a := range d.cfg.Aggregates {
		rcfg.Aggregates = append(rcfg.Aggregates, bgp.AggregateSpec{Prefix: a.Prefix, SummaryOnly: a.SummaryOnly})
	}
	d.bgp = bgp.New(rcfg, d.eng, d.bgpHooks(), d.attrs)
	byIP := make(map[netpkt.IP]int, len(d.cfg.Neighbors))
	for _, n := range d.cfg.Neighbors {
		local := netpkt.IP(0)
		if ic := d.cfg.Interface(n.Interface); ic != nil {
			local = ic.Addr.Addr
		}
		exp := bgp.PermitAll
		if n.ExportPolicy != "" {
			exp = d.cfg.RouteMaps[n.ExportPolicy]
		}
		if d.Image.Bugs.StopAnnouncingOddPrefixes {
			exp = withOddPrefixBug(exp)
		}
		imp := bgp.PermitAll
		if n.ImportPolicy != "" {
			imp = d.cfg.RouteMaps[n.ImportPolicy]
		}
		peer := d.bgp.AddPeer(bgp.PeerConfig{
			Name: n.Desc, LocalIP: local, RemoteIP: n.IP, RemoteAS: n.RemoteAS,
			Interface: n.Interface, ImportPolicy: imp, ExportPolicy: exp,
			AdvertiseLocalOnly: d.Image.StaticSpeaker,
		})
		byIP[n.IP] = peer.Index
	}
	d.peerByIP = byIP
	for _, p := range d.cfg.Networks {
		d.bgp.Originate(p)
	}
	epoch := d.epoch
	for _, peer := range d.bgp.Peers() {
		peer.Start()
		d.scheduleSessionRetry(peer, epoch, 0)
	}
}

// scheduleSessionRetry re-attempts session establishment (the neighbor may
// still be booting). Exponential-ish, bounded.
func (d *Device) scheduleSessionRetry(peer *bgp.Peer, epoch, attempt int) {
	if attempt >= 120 {
		d.logf("bgp: giving up on neighbor %s", peer.Config.Name)
		return
	}
	d.eng.After(15*time.Second, func() {
		if d.epoch != epoch || d.state != DeviceRunning {
			return
		}
		if peer.State() == bgp.StateEstablished {
			return
		}
		peer.Stop("connect retry")
		peer.Start()
		d.scheduleSessionRetry(peer, epoch, attempt+1)
	})
}

// bgpHooks returns the hooks of the BGP router the current boot runs. They
// are bound to the boot: a call from an earlier boot's router — an MRAI
// flush a crash left armed, or the rest of a session reset that crashed the
// device midway — is dropped, so a hook that acts is always called by d.bgp.
// Boot and Fork both build their router's hooks here.
func (d *Device) bgpHooks() bgp.Hooks { return &bgpBoot{d, d.epoch} }

// bgpBoot is the bgp.Hooks of one boot of d: each hook acts only while d
// still runs that boot.
type bgpBoot struct {
	d     *Device
	epoch int
}

func (h *bgpBoot) SendToPeer(i int, frame []byte) {
	if h.d.epoch == h.epoch {
		h.d.sendBGP(i, frame)
	}
}

func (h *bgpBoot) InstallRoute(p netpkt.Prefix, nhs []rib.NextHop) error {
	if h.d.epoch != h.epoch {
		return nil
	}
	return h.d.installBGPRoute(p, nhs)
}

func (h *bgpBoot) RemoveRoute(p netpkt.Prefix) {
	if h.d.epoch == h.epoch {
		h.d.fib.Remove(p)
		h.d.LastFIBChange = h.d.eng.Now()
	}
}

func (h *bgpBoot) SessionEvent(_ int, from, to bgp.SessionState) {
	if h.d.epoch == h.epoch {
		h.d.onSessionEvent(from, to)
	}
}

func (h *bgpBoot) Logf(f string, a ...any) {
	if h.d.epoch == h.epoch {
		h.d.logf(f, a...)
	}
}

// installBGPRoute is the vendor hook between the BGP RIB and the hardware
// FIB — where the FIB-capacity and default-route bugs live.
func (d *Device) installBGPRoute(p netpkt.Prefix, nhs []rib.NextHop) error {
	if d.Image.Bugs.DefaultRouteBroken && p.Len == 0 {
		// §7 Case 2: "failing to update the default route when routes are
		// learned from BGP". Silently skips programming.
		d.logf("BUG default-route: skipped programming %s", p)
		return nil
	}
	err := d.fib.InstallGroup(p, rib.ProtoBGP, nhs)
	if err == nil {
		d.LastFIBChange = d.eng.Now()
	}
	if err == rib.ErrFull && d.Image.Bugs.SilentFIBOverflow {
		// §2: the vendor hook swallows the overflow, black-holing traffic.
		return nil
	}
	return err
}

func (d *Device) onSessionEvent(from, to bgp.SessionState) {
	// A flap is an Established session dropping — connect-retry churn
	// during bring-up does not count.
	if to == bgp.StateEstablished {
		d.eng.Recorder().Counter("bgp.sessions_established", d.Name).Inc()
	}
	if to == bgp.StateIdle && from == bgp.StateEstablished && d.state == DeviceRunning {
		d.flaps++
		d.eng.Recorder().Counter("bgp.flaps", d.Name).Inc()
		if d.Image.Bugs.CrashAfterFlaps > 0 && d.flaps >= d.Image.Bugs.CrashAfterFlaps {
			d.Crash("session flap storm")
		}
	}
}

// startOSPF builds the OSPF instance if configured.
func (d *Device) startOSPF() {
	if d.cfg.OSPF == nil {
		return
	}
	d.osp = ospf.New(ospf.Config{Name: d.Name, RouterID: d.cfg.RouterID}, d.eng, d.ospfHooks())
	d.osp.AddStub(d.cfg.Loopback)
	ifaces := make(map[string]int, len(d.cfg.OSPF.Interfaces))
	for _, oi := range d.cfg.OSPF.Interfaces {
		ic := d.cfg.Interface(oi.Name)
		if ic == nil {
			continue
		}
		typ := ospf.P2P
		if oi.Broadcast {
			typ = ospf.Broadcast
		}
		idx := d.osp.AddInterface(ospf.IfaceConfig{
			Name: oi.Name, Addr: ic.Addr, Type: typ, Cost: oi.Cost, Priority: oi.Priority,
		})
		ifaces[oi.Name] = idx
	}
	d.ospfIfaces = ifaces
	d.osp.Start()
}

// ospfHooks returns the hooks of the OSPF instance the current boot runs,
// bound to the boot as bgpHooks' are: an SPF run or election an earlier boot
// left armed neither floods nor programs the FIB.
func (d *Device) ospfHooks() ospf.Hooks { return &ospfBoot{d, d.epoch} }

// ospfBoot is the ospf.Hooks of one boot of d: each hook acts only while d
// still runs that boot.
type ospfBoot struct {
	d     *Device
	epoch int
}

func (h *ospfBoot) Send(i int, dst ospf.RouterID, data []byte) {
	if h.d.epoch == h.epoch {
		h.d.sendOSPF(i, dst, data)
	}
}

func (h *ospfBoot) InstallRoute(p netpkt.Prefix, nhs []rib.NextHop) error {
	if h.d.epoch != h.epoch {
		return nil
	}
	return h.d.fib.InstallHops(p, rib.ProtoOSPF, nhs)
}

func (h *ospfBoot) RemoveRoute(p netpkt.Prefix) {
	if h.d.epoch == h.epoch {
		h.d.fib.Remove(p)
	}
}

func (h *ospfBoot) Logf(f string, a ...any) {
	if h.d.epoch == h.epoch {
		h.d.logf(f, a...)
	}
}

// Stop halts the firmware (administrative shutdown). The PhyNet container
// and its interfaces survive.
func (d *Device) Stop(reason string) {
	if d.state == DeviceStopped {
		return
	}
	d.logf("stopping: %s", reason)
	if d.bgp != nil {
		for _, p := range d.bgp.Peers() {
			p.Stop(reason)
		}
	}
	d.container.Detach()
	d.state = DeviceStopped
	d.epoch++
	d.bgp, d.osp, d.fib, d.fwd = nil, nil, nil, nil
}

// Crash models a firmware crash: like Stop, but without graceful session
// teardown (peers discover via liveness, i.e. the orchestrator's health
// monitor or link events).
func (d *Device) Crash(reason string) {
	if d.state != DeviceRunning {
		return
	}
	d.logf("CRASH: %s", reason)
	d.eng.Recorder().Event("device", d.Name, obs.Attr{K: "what", V: "crash"}, obs.Attr{K: "reason", V: reason})
	d.container.Detach()
	d.state = DeviceCrashed
	d.epoch++
	d.bgp, d.osp, d.fib, d.fwd = nil, nil, nil, nil
}

// ReloadDuration is the two-layer-design reload time measured in §8.3: the
// container restarts with interfaces intact.
const ReloadDuration = 3 * time.Second

// Reload applies a (possibly new) configuration by restarting the firmware
// on top of the surviving PhyNet namespace — the 3-second path of §8.3.
// onReady fires when the device is Running again.
func (d *Device) Reload(newCfg *config.DeviceConfig, onReady func()) {
	if newCfg != nil {
		d.cfg = newCfg
	}
	d.Stop("reload")
	d.state = DeviceBooting
	d.epoch++
	epoch := d.epoch
	start := d.eng.Now()
	d.eng.After(ReloadDuration, func() {
		if d.epoch != epoch || d.state != DeviceBooting {
			return
		}
		d.finishBoot()
		d.eng.Recorder().SpanAt("reload", d.Name, int64(start), int64(d.eng.Now()))
		if onReady != nil {
			onReady()
		}
	})
}

// LinkDown tells the firmware one of its interfaces lost carrier: BGP
// sessions on it reset; OSPF re-floods.
func (d *Device) LinkDown(iface string) {
	if d.state != DeviceRunning {
		return
	}
	d.eng.Recorder().Event("link", d.Name+"/"+iface, obs.Attr{K: "what", V: "down"})
	if d.bgp != nil {
		for _, p := range d.bgp.Peers() {
			if p.Config.Interface == iface {
				p.Stop("link down")
			}
		}
	}
	if d.osp != nil {
		if idx, ok := d.ospfIfaces[iface]; ok {
			d.osp.InterfaceDown(idx)
		}
	}
}

// LinkUp restores an interface; BGP sessions restart.
func (d *Device) LinkUp(iface string) {
	if d.state != DeviceRunning {
		return
	}
	d.eng.Recorder().Event("link", d.Name+"/"+iface, obs.Attr{K: "what", V: "up"})
	epoch := d.epoch
	if d.bgp != nil {
		for _, p := range d.bgp.Peers() {
			if p.Config.Interface == iface {
				p.Start()
				d.scheduleSessionRetry(p, epoch, 0)
			}
		}
	}
	if d.osp != nil {
		if idx, ok := d.ospfIfaces[iface]; ok {
			d.osp.InterfaceUp(idx)
		}
	}
}

// withOddPrefixBug wraps an export policy with the "stopped announcing
// certain IP prefixes" firmware bug.
func withOddPrefixBug(base *bgp.Policy) *bgp.Policy {
	if base == nil {
		base = bgp.PermitAll
	}
	return &bgp.Policy{
		Name:          base.Name + "+fw-bug",
		Rules:         append([]bgp.Rule{{Name: "fw-bug", Match: bgp.Match{OddThirdOctet24: true}, Action: bgp.Deny}}, base.Rules...),
		DefaultAction: base.DefaultAction,
	}
}

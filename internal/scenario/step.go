package scenario

import (
	"fmt"
	"strings"

	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/firmware"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
	"crystalnet/internal/vendors"
)

// step executes one step, filling res. Control-op errors mark the step
// failed but do not abort the run: a rehearsal wants the full trajectory.
func (r *runner) step(st *Step, res *StepResult) {
	if st.IsAssert() {
		var c Check
		if st.Op == OpAssertFIBDiff {
			// One whole-fabric diff serves the verdict and the report lines.
			diffs := r.fibDiffs(st)
			c = r.fibDiffCheck(st, diffs)
			res.Diffs = fibDiffStrings(diffs)
		} else {
			c = r.check(st)
		}
		res.Pass, res.Detail = c.Pass, c.Detail
		return
	}
	res.Pass = true
	fail := func(format string, args ...any) {
		res.Pass = false
		res.Detail = fmt.Sprintf(format, args...)
	}

	switch st.Op {
	case OpSetLink:
		da, ia, err := splitEndpoint(st.A)
		if err != nil {
			fail("%v", err)
			return
		}
		db, ib, err := splitEndpoint(st.B)
		if err != nil {
			fail("%v", err)
			return
		}
		if err := r.em.SetLink(da, ia, db, ib, *st.Up); err != nil {
			fail("%v", err)
			return
		}
		state := "down"
		if *st.Up {
			state = "up"
		}
		res.Detail = fmt.Sprintf("%s <-> %s %s", st.A, st.B, state)

	case OpReloadConfig:
		orig := r.origConfigs[st.Device]
		if orig == nil {
			fail("no baseline configuration for %q", st.Device)
			return
		}
		cfg := orig.Clone()
		if st.ACL != nil {
			if err := applyACLPatch(cfg, st.ACL); err != nil {
				fail("%v", err)
				return
			}
			res.Detail = fmt.Sprintf("%s: ACL %s deny %s", st.Device, st.ACL.Name, st.ACL.DenySrc)
		} else {
			res.Detail = fmt.Sprintf("%s: rollback to baseline", st.Device)
		}
		if err := r.em.ReloadDevice(st.Device, cfg, nil); err != nil {
			fail("%v", err)
		}

	case OpAttachDevice:
		if err := r.attachDevice(st.NewDevice); err != nil {
			fail("%v", err)
			return
		}
		res.Detail = fmt.Sprintf("attached %s (%s) to %s",
			st.NewDevice.Name, st.NewDevice.Vendor, strings.Join(st.NewDevice.Peers, ", "))

	case OpInjectPackets:
		dev := r.em.Devices[st.From]
		if dev == nil {
			fail("no device %q", st.From)
			return
		}
		dst, err := r.resolveDst(st)
		if err != nil {
			fail("%v", err)
			return
		}
		count := st.Count
		if count <= 0 {
			count = 1
		}
		interval := st.Interval.Std()
		if interval <= 0 {
			interval = probeInterval
		}
		flow, err := r.em.InjectPackets(st.From, dataplane.PacketMeta{
			Src: dev.Config().Loopback.Addr, Dst: dst,
			Proto: netpkt.ProtoUDP, SrcPort: probePort, DstPort: probePort,
			TTL: probeTTL,
		}, count, interval)
		if err != nil {
			fail("%v", err)
			return
		}
		r.lastFlow = flow
		res.Detail = fmt.Sprintf("%d probe(s) %s -> %s", count, st.From, dst)

	case OpInjectVMFailure:
		vm := r.em.VMName(st.Device)
		outcome, err := r.em.InjectVMFailure(st.Device)
		if err != nil {
			fail("%v", err)
			return
		}
		if outcome == core.FaultQueued {
			// The VM is mid-boot or mid-recovery: the fault is armed to
			// fire on its next Running transition, and the report's
			// PendingFaults tally keeps it visible until it does.
			res.Detail = fmt.Sprintf("queued VM failure for %s (hosting %s)", vm, st.Device)
		} else {
			res.Detail = fmt.Sprintf("failed VM %s (hosting %s)", vm, st.Device)
		}

	case OpExec:
		s, err := r.em.Login(st.Device)
		if err != nil {
			fail("%v", err)
			return
		}
		out, err := s.Exec(st.Command)
		if err != nil {
			fail("%v", err)
			return
		}
		if st.ExpectContains != "" && !strings.Contains(out, st.ExpectContains) {
			fail("output of %q missing %q", st.Command, st.ExpectContains)
			return
		}
		res.Detail = fmt.Sprintf("%s: %s (%d bytes)", st.Device, st.Command, len(out))

	case OpWaitConverge:
		before := r.orch.Eng.Fired()
		if _, err := r.em.RunUntilConverged(r.maxEvents(st.MaxEvents)); err != nil {
			fail("%v", err)
			return
		}
		res.Detail = fmt.Sprintf("%d events", r.orch.Eng.Fired()-before)
		r.sweepInvariants(res)

	case OpSleep:
		r.orch.Eng.RunFor(st.Duration.Std())
		res.Detail = fmt.Sprintf("slept %s", st.Duration.Std())

	case OpSaveBaseline:
		name := st.Baseline
		if name == "" {
			name = DefaultBaseline
		}
		r.baselines[name] = r.em.Save()
		res.Detail = fmt.Sprintf("saved baseline %q", name)

	case OpInjectTraffic:
		if err := r.attachTraffic(st.Traffic, r.report.Seed); err != nil {
			fail("%v", err)
			return
		}
		m := r.em.Traffic()
		res.Detail = fmt.Sprintf("%d flows in %d aggregates settled", m.Flows(), m.Aggregates())

	default:
		fail("unknown op %q", st.Op)
	}
}

// attachTraffic attaches a flow matrix to the emulation, defaulting its
// seed to the run seed so an unseeded traffic block still yields the
// deterministic, campaign-reproducible placement the report contract
// promises.
func (r *runner) attachTraffic(spec *traffic.Spec, seed int64) error {
	sp := *spec.Clone()
	if sp.Seed == 0 {
		sp.Seed = seed
	}
	return r.em.AttachTraffic(sp)
}

// attachDevice grows the topology and the running emulation (the new-rack
// rehearsal): add the device and its links, boot it, and reload each peer
// with a regenerated configuration so it learns the new sessions — exactly
// the operator workflow in production. The topology grows in a copy: the
// emulation's own is shared with its checkpoint and every fork of it.
func (r *runner) attachDevice(nd *NewDevice) error {
	layer, err := parseLayer(nd.Layer)
	if err != nil {
		return err
	}
	if r.em.Network().Device(nd.Name) != nil {
		return fmt.Errorf("device %q already in topology", nd.Name)
	}
	for _, peer := range nd.Peers {
		if r.em.Devices[peer] == nil {
			return fmt.Errorf("peer %q is not emulated", peer)
		}
	}
	net := r.em.Network().Clone()
	asn := nd.ASN
	if asn == 0 {
		asn = topo.ToRAS(net.NumDevices())
	}
	d := net.AddDevice(nd.Name, layer, asn, nd.Vendor)
	for _, p := range nd.Originated {
		pfx, err := netpkt.ParsePrefix(p)
		if err != nil {
			return fmt.Errorf("originated %q: %w", p, err)
		}
		d.Originated = append(d.Originated, pfx)
	}
	for _, peer := range nd.Peers {
		net.Connect(d, net.MustDevice(peer))
	}
	img, err := image(nd.Vendor, nd.Version)
	if err != nil {
		return err
	}
	if err := r.em.AttachNewDevice(net, nd.Name, img); err != nil {
		return err
	}
	// Neighbors learn the new sessions via operator reloads, as in
	// production (§3.2).
	for _, peer := range nd.Peers {
		cur := r.em.Devices[peer].Config()
		cfg := config.GenerateDevice(net.MustDevice(peer))
		cfg.Credential = cur.Credential
		if err := r.em.ReloadDevice(peer, cfg, nil); err != nil {
			return err
		}
	}
	return nil
}

// image returns a vendor's image of the given version, or its production
// image for an empty version.
func image(vendor, version string) (firmware.VendorImage, error) {
	if version == "" {
		return vendors.Default(vendor)
	}
	return vendors.Get(vendor, version)
}

// resolveDst resolves a step's probe destination: a literal IP or an
// offset into a device's first originated server prefix.
func (r *runner) resolveDst(st *Step) (netpkt.IP, error) {
	if st.Dst != "" {
		ip, err := netpkt.ParseIP(st.Dst)
		if err != nil {
			return 0, fmt.Errorf("dst %q: %w", st.Dst, err)
		}
		return ip, nil
	}
	d := r.em.Network().Device(st.DstDevice)
	if d == nil {
		return 0, fmt.Errorf("dstDevice %q not in topology", st.DstDevice)
	}
	if len(d.Originated) == 0 {
		return 0, fmt.Errorf("dstDevice %q originates no prefixes", st.DstDevice)
	}
	return d.Originated[0].Addr + netpkt.IP(st.DstOffset), nil
}

// baselineName resolves a step's baseline reference.
func (r *runner) baselineName(st *Step) string {
	if st.Baseline != "" {
		return st.Baseline
	}
	return DefaultBaseline
}

// applyACLPatch adds the patch's deny-source ACL to cfg and binds it
// inbound on every non-loopback interface when requested.
func applyACLPatch(cfg *config.DeviceConfig, patch *ACLPatch) error {
	pfx, err := netpkt.ParsePrefix(patch.DenySrc)
	if err != nil {
		return fmt.Errorf("acl denySrc %q: %w", patch.DenySrc, err)
	}
	if cfg.ACLs == nil {
		cfg.ACLs = map[string]*dataplane.ACL{}
	}
	cfg.ACLs[patch.Name] = &dataplane.ACL{
		Name:          patch.Name,
		Rules:         []dataplane.ACLRule{{Action: dataplane.ACLDeny, Src: &pfx}},
		DefaultAction: dataplane.ACLPermit,
	}
	if patch.BindIngress {
		for _, ic := range cfg.Interfaces {
			if ic.Name == "lo" {
				continue
			}
			cfg.Bindings = append(cfg.Bindings, config.ACLBinding{
				ACLName: patch.Name, Interface: ic.Name, Direction: config.In,
			})
		}
	}
	return nil
}

// splitEndpoint parses "device:interface".
func splitEndpoint(s string) (dev, iface string, err error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("bad endpoint %q (want device:interface)", s)
	}
	return s[:i], s[i+1:], nil
}

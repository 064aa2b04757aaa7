// Package telemetry implements CrystalNet's packet-level telemetry (§3.3):
// operators specify probe packets, the emulator injects them with a
// pre-defined signature, every emulated device captures signature-matched
// packets, and PullPackets-style collection reconstructs per-packet paths
// and per-device counters for analysis.
//
// DESIGN.md §7 (Monitor plane) situates packet telemetry beside the trace
// recorder; docs/OBSERVABILITY.md covers both.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/dataplane"
	"crystalnet/internal/firmware"
	"crystalnet/internal/sim"
)

// Injector allocates flow IDs and schedules probe injections.
type Injector struct {
	eng      *sim.Engine
	nextFlow uint64
}

// NewInjector binds an injector to the simulation engine.
func NewInjector(eng *sim.Engine) *Injector {
	return &Injector{eng: eng, nextFlow: 1}
}

// Inject schedules count probes with the given header from the device, one
// every interval (the InjectPackets API: "specified header from a specified
// device & port, at given frequency in given amount of time"). It returns
// the flow ID identifying the probes in captures.
func (i *Injector) Inject(dev *firmware.Device, meta dataplane.PacketMeta, count int, interval time.Duration) uint64 {
	flow := i.nextFlow
	i.nextFlow++
	for k := 0; k < count; k++ {
		seq := uint32(k + 1)
		i.eng.After(time.Duration(k)*interval, func() {
			dev.InjectPacket(meta, flow, seq)
		})
	}
	return flow
}

// Collect drains capture buffers from all devices and returns the merged
// records ordered by (flow, seq, time).
func Collect(devs []*firmware.Device) []firmware.CaptureRecord {
	var out []firmware.CaptureRecord
	for _, d := range devs {
		out = append(out, d.PullPackets()...)
	}
	sortRecords(out)
	return out
}

func sortRecords(rs []firmware.CaptureRecord) {
	sort.Slice(rs, func(a, b int) bool {
		x, y := rs[a], rs[b]
		if x.FlowID != y.FlowID {
			return x.FlowID < y.FlowID
		}
		if x.Seq != y.Seq {
			return x.Seq < y.Seq
		}
		if x.Time != y.Time {
			return x.Time < y.Time
		}
		return x.Device < y.Device
	})
}

// Path is the reconstructed trajectory of one probe.
type Path struct {
	Flow uint64
	Seq  uint32
	Hops []firmware.CaptureRecord
	// Delivered reports whether the probe reached a rack (egress to the
	// server attachment) or terminated locally at a device.
	Delivered bool
	// FinalVerdict is the last hop's forwarding verdict.
	FinalVerdict dataplane.Verdict
}

// String renders "dev1 -> dev2 -> dev3 [verdict]".
func (p Path) String() string {
	var b strings.Builder
	for i, h := range p.Hops {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(h.Device)
	}
	fmt.Fprintf(&b, " [%s]", p.FinalVerdict)
	return b.String()
}

// ComputePaths groups sorted records into per-probe paths (the optional
// "compute packet paths" of PullPackets).
func ComputePaths(records []firmware.CaptureRecord) []Path {
	sorted := append([]firmware.CaptureRecord(nil), records...)
	sortRecords(sorted)
	var out []Path
	var cur *Path
	for _, r := range sorted {
		if cur == nil || cur.Flow != r.FlowID || cur.Seq != r.Seq {
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &Path{Flow: r.FlowID, Seq: r.Seq}
		}
		cur.Hops = append(cur.Hops, r)
	}
	if cur != nil {
		out = append(out, *cur)
	}
	for i := range out {
		last := out[i].Hops[len(out[i].Hops)-1]
		out[i].FinalVerdict = last.Verdict
		out[i].Delivered = last.Verdict == dataplane.VerdictLocal ||
			(last.Verdict == dataplane.VerdictForward && last.Egress == firmware.ServerIface)
	}
	return out
}

// LoadShare computes, for the probes of a flow set that traversed any of
// the given devices, the fraction seen by each — how the Figure 1
// experiment measures traffic imbalance between R6 and R7.
func LoadShare(records []firmware.CaptureRecord, devices []string) map[string]float64 {
	counts := map[string]int{}
	total := 0
	want := map[string]bool{}
	for _, d := range devices {
		want[d] = true
	}
	seen := map[[2]uint64]bool{} // (flow, seq) counted once per device set
	for _, r := range records {
		if !want[r.Device] {
			continue
		}
		key := [2]uint64{r.FlowID, uint64(r.Seq)}
		if seen[key] {
			continue
		}
		seen[key] = true
		counts[r.Device]++
		total++
	}
	out := map[string]float64{}
	for _, d := range devices {
		if total > 0 {
			out[d] = float64(counts[d]) / float64(total)
		} else {
			out[d] = 0
		}
	}
	return out
}

// Fork returns an injector on eng that continues the flow-ID sequence, so
// probes injected after a fork receive the same IDs a fresh run with the
// same history would assign.
func (i *Injector) Fork(eng *sim.Engine) *Injector {
	return &Injector{eng: eng, nextFlow: i.nextFlow}
}

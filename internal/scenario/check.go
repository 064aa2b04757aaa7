package scenario

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/telemetry"
)

// check evaluates one assertion against current emulation state.
func (r *runner) check(st *Step) Check {
	c := Check{Op: st.Op, Pass: true}
	fail := func(format string, args ...any) {
		c.Pass = false
		c.Detail = fmt.Sprintf(format, args...)
	}

	switch st.Op {
	case OpAssertReachable:
		dst, err := r.resolveDst(st)
		if err != nil {
			fail("%v", err)
			return c
		}
		path, ok := batfish.NewIndexWalker(r.liveLookup, r.em.Index()).Reachable(st.From, dst)
		want := st.Expect == nil || *st.Expect
		if ok != want {
			fail("reachable(%s -> %s) = %v, want %v (path %s)",
				st.From, dst, ok, want, strings.Join(path, " -> "))
		} else {
			c.Detail = fmt.Sprintf("%s -> %s via %d hops", st.From, dst, len(path))
		}

	case OpAssertFIBDiff:
		return r.fibDiffCheck(st, r.fibDiffs(st))

	case OpAssertNoBlackhole:
		failures, unknown := r.blackholes(st)
		var bad []string
		if len(unknown) > 0 {
			bad = append(bad, "not emulated fabric devices: "+strings.Join(unknown, ", "))
		}
		if len(failures) > 0 {
			shown := failures
			if len(shown) > maxDetail {
				shown = shown[:maxDetail]
			}
			bad = append(bad, fmt.Sprintf("%d blackholed pairs: %s", len(failures), strings.Join(shown, "; ")))
		}
		if len(bad) > 0 {
			fail("%s", strings.Join(bad, "; "))
		} else {
			c.Detail = "all server prefixes reachable"
		}

	case OpAssertRecoveredWithin:
		rec := r.em.Recoveries()
		min := st.Recoveries
		if min <= 0 {
			min = 1
		}
		if len(rec) < min {
			fail("%d recoveries recorded, want >= %d", len(rec), min)
			return c
		}
		var worst time.Duration
		for _, d := range rec {
			if d > worst {
				worst = d
			}
		}
		if worst > st.Duration.Std() {
			fail("slowest recovery %s exceeds bound %s", worst, st.Duration.Std())
		} else {
			c.Detail = fmt.Sprintf("%d recoveries, slowest %s (bound %s)",
				len(rec), worst, st.Duration.Std())
		}

	case OpAssertProbe:
		paths := r.probePaths()
		want := st.Expect == nil || *st.Expect
		if len(paths) == 0 {
			fail("no probe paths captured (inject-packets + wait-converge first)")
			return c
		}
		var rendered []string
		ok := true
		for _, p := range paths {
			if p.Delivered != want {
				ok = false
			}
			if len(rendered) < maxDetail {
				rendered = append(rendered, p.String())
			}
		}
		if !ok {
			fail("probe delivery != %v: %s", want, strings.Join(rendered, "; "))
		} else {
			c.Detail = strings.Join(rendered, "; ")
		}

	case OpAssertSessions:
		states := r.em.PullStates()
		names := r.filterDevices(st.Devices, st.Vendor)
		var bad []string
		for _, name := range names {
			if got := states[name].Established; got != st.Established {
				bad = append(bad, fmt.Sprintf("%s=%d", name, got))
			}
		}
		if len(bad) > 0 {
			if len(bad) > maxDetail {
				bad = bad[:maxDetail]
			}
			fail("sessions != %d on %s", st.Established, strings.Join(bad, ", "))
		} else {
			c.Detail = fmt.Sprintf("%d devices at %d established sessions", len(names), st.Established)
		}

	case OpAssertFIBLookup:
		ip, err := netpkt.ParseIP(st.IP)
		if err != nil {
			fail("ip %q: %v", st.IP, err)
			return c
		}
		want := st.Expect == nil || *st.Expect
		var names []string
		if st.Device != "" {
			names = []string{st.Device}
		} else {
			names = r.filterDevices(st.Devices, st.Vendor)
		}
		var bad []string
		for _, name := range names {
			d := r.em.Devices[name]
			if d == nil || d.FIB() == nil {
				bad = append(bad, name+"=no-fib")
				continue
			}
			if _, ok := d.FIB().Lookup(ip); ok != want {
				bad = append(bad, fmt.Sprintf("%s=%v", name, ok))
			}
		}
		if len(bad) > 0 {
			if len(bad) > maxDetail {
				bad = bad[:maxDetail]
			}
			fail("lookup(%s) != %v on %s", st.IP, want, strings.Join(bad, ", "))
		} else {
			c.Detail = fmt.Sprintf("%d devices route %s", len(names), st.IP)
		}

	case OpAssertDeviceState:
		d := r.em.Devices[st.Device]
		if d == nil {
			fail("no device %q", st.Device)
			return c
		}
		if got := d.State().String(); got != st.State {
			fail("%s state %s, want %s", st.Device, got, st.State)
		} else {
			c.Detail = fmt.Sprintf("%s is %s", st.Device, st.State)
		}

	case OpAssertFlowSLO:
		m := r.em.Traffic()
		if m == nil || m.Settles() == 0 {
			fail("no traffic attached (spec traffic or inject-traffic first)")
			return c
		}
		slo := m.SLO(st.Window.Std())
		var bad []string
		if st.MaxBlackholedPct != nil && slo.BlackholedPct > *st.MaxBlackholedPct {
			bad = append(bad, fmt.Sprintf("blackholed %.3f%% > %.3f%%", slo.BlackholedPct, *st.MaxBlackholedPct))
		}
		if st.MaxLostPct != nil && slo.LostPct > *st.MaxLostPct {
			bad = append(bad, fmt.Sprintf("lost %.3f%% > %.3f%%", slo.LostPct, *st.MaxLostPct))
		}
		if len(bad) > 0 {
			fail("flow SLO violated (window %s): %s", st.Window.Std(), strings.Join(bad, ", "))
		} else {
			c.Detail = fmt.Sprintf("blackholed %.3f%%, lost %.3f%% within SLO (window %s)",
				slo.BlackholedPct, slo.LostPct, st.Window.Std())
		}

	default:
		fail("unknown assertion %q", st.Op)
	}
	return c
}

// fibDiffs compares the current FIBs against the referenced baseline,
// optionally scoped to named devices.
func (r *runner) fibDiffs(st *Step) map[string][]rib.Diff {
	base := r.baselines[r.baselineName(st)]
	if base == nil {
		return map[string][]rib.Diff{"<missing-baseline>": {{}}}
	}
	diffs := r.em.DiffAgainst(base)
	if len(st.Devices) > 0 {
		scope := map[string]bool{}
		for _, d := range st.Devices {
			scope[d] = true
		}
		for name := range diffs {
			if !scope[name] {
				delete(diffs, name)
			}
		}
	}
	return diffs
}

// fibDiffCheck judges diffs (as fibDiffs returned them) against the step's
// difference budget.
func (r *runner) fibDiffCheck(st *Step, diffs map[string][]rib.Diff) Check {
	c := Check{Op: st.Op, Pass: true}
	total := 0
	for _, d := range diffs {
		total += len(d)
	}
	if total > st.MaxDiffs {
		names := slices.Sorted(maps.Keys(diffs))
		if len(names) > maxDetail {
			names = names[:maxDetail]
		}
		c.Pass = false
		c.Detail = fmt.Sprintf("%d FIB differences vs baseline %q (max %d) on %s",
			total, r.baselineName(st), st.MaxDiffs, strings.Join(names, ", "))
	} else {
		c.Detail = fmt.Sprintf("%d differences (max %d)", total, st.MaxDiffs)
	}
	return c
}

// fibDiffStrings renders bounded, deterministic diff lines for the report.
func fibDiffStrings(diffs map[string][]rib.Diff) []string {
	var out []string
	for _, name := range slices.Sorted(maps.Keys(diffs)) {
		for _, d := range diffs[name] {
			if len(out) >= 2*maxDetail {
				out = append(out, "...")
				return out
			}
			out = append(out, fmt.Sprintf("%s: %s", name, d))
		}
	}
	return out
}

// liveLookup resolves a longest-prefix match in a device's live FIB trie, in
// place: the emulation is quiescent while a check runs, so pulling FIB
// snapshots just to index them again would only duplicate the tries.
func (r *runner) liveLookup(dev string, dst netpkt.IP) (*rib.Entry, bool) {
	f := r.table(dev)
	if f == nil {
		return nil, false
	}
	return f.Lookup(dst)
}

// table returns a device's live forwarding table, nil when it has none.
func (r *runner) table(dev string) *rib.FIB {
	if d := r.em.Devices[dev]; d != nil {
		return d.FIB()
	}
	return nil
}

// dest is one destination of the no-blackhole sweep: a host inside a
// server prefix, with the device originating it.
type dest struct {
	owner string
	ip    netpkt.IP
}

// sweepTargets returns what a no-blackhole check sweeps: the sources, which
// are every emulated fabric device in name order or else st.Devices in its
// order; the names in st.Devices that are not emulated fabric devices, which
// are reported instead of walked; and one host inside every server prefix
// the fabric originates, in fabric order. Speakers are excluded on both
// sides: they replay recorded boundary routes, not their own state.
func (r *runner) sweepTargets(st *Step) (sources, unknown []string, dests []dest) {
	plan := r.em.Plan()
	fabric := append(append([]string{}, plan.Internal...), plan.Boundary...)
	sort.Strings(fabric)
	ix := r.em.Index()
	emulated := func(name string) bool {
		_, inFabric := slices.BinarySearch(fabric, name)
		_, indexed := ix.ID(name)
		return inFabric && indexed && r.em.Devices[name] != nil
	}

	if len(st.Devices) == 0 {
		for _, name := range fabric {
			if emulated(name) {
				sources = append(sources, name)
			}
		}
	}
	for _, name := range st.Devices {
		if emulated(name) {
			sources = append(sources, name)
		} else {
			unknown = append(unknown, name)
		}
	}

	// Destinations are attributed to their owning device so self-pairs are
	// skipped.
	net := r.em.Network()
	for _, name := range fabric {
		d := net.Device(name)
		if d == nil {
			continue
		}
		for _, p := range d.Originated {
			host := p.Addr
			if p.Len < 31 {
				host++ // subnet base is not a host on broadcast subnets
			}
			dests = append(dests, dest{owner: name, ip: host})
		}
	}
	return sources, unknown, dests
}

// blackholes sweeps reachability from every source toward every destination
// of sweepTargets, returning the failing pairs and the unknown scoped
// sources. It reads the verdicts off the runner's sweep table, brought up to
// date with what the fabric wrote since the last sweep (batfish.Sweep); under
// -tags crystaldebug it also walks every pair afresh and panics unless the
// two agree.
func (r *runner) blackholes(st *Step) (failures, unknown []string) {
	sources, unknown, dests := r.sweepTargets(st)
	ips := make([]netpkt.IP, len(dests))
	for j, d := range dests {
		ips[j] = d.ip
	}
	ix := r.em.Index()
	var resolved int
	r.sweep, resolved = r.sweep.Update(ix, ips, r.table)
	r.sweepResolved += resolved
	for _, src := range sources {
		id, _ := ix.ID(src)
		for j, d := range dests {
			if d.owner == src {
				continue
			}
			if !r.sweep.Delivered(id, j) {
				failures = append(failures, fmt.Sprintf("%s -> %s", src, d.ip))
			}
		}
	}
	if debugSweep {
		if want := r.walkBlackholes(sources, dests); !slices.Equal(failures, want) {
			panic(fmt.Sprintf("scenario %s: sweep table disagrees with a full walk:\n table %q\n walk  %q",
				r.sp.Name, failures, want))
		}
	}
	return failures, unknown
}

// walkBlackholes is the sweep without the table: a Walker walks every pair
// against the live FIBs. It is the sweep table's oracle.
func (r *runner) walkBlackholes(sources []string, dests []dest) []string {
	var failures []string
	w := batfish.NewIndexWalker(r.liveLookup, r.em.Index())
	for _, src := range sources {
		for _, d := range dests {
			if d.owner == src {
				continue
			}
			if !w.Delivered(src, d.ip) {
				failures = append(failures, fmt.Sprintf("%s -> %s", src, d.ip))
			}
		}
	}
	return failures
}

// probePaths drains telemetry captures and returns the paths of the most
// recently injected flow.
func (r *runner) probePaths() []telemetry.Path {
	all := telemetry.ComputePaths(r.em.PullPackets())
	var out []telemetry.Path
	for _, p := range all {
		if p.Flow == r.lastFlow {
			out = append(out, p)
		}
	}
	return out
}

// filterDevices returns emulated device names scoped by an explicit list
// or a vendor-image name, sorted.
func (r *runner) filterDevices(devices []string, vendor string) []string {
	if len(devices) > 0 {
		out := append([]string(nil), devices...)
		sort.Strings(out)
		return out
	}
	var out []string
	for _, name := range r.em.List() {
		d := r.em.Devices[name]
		if d == nil {
			continue
		}
		if vendor == "" || d.Image.Name == vendor {
			out = append(out, name)
		}
	}
	return out
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/bgp"
	"crystalnet/internal/checkpoint"
	"crystalnet/internal/core"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/topo"
)

// samplePairs is the size of the seeded reachability sample every cold
// mockup must pass.
const samplePairs = 2000

// coldJob is what the parent hands a cold child on stdin. One child is one
// cold mockup: bgp.Intern and the rib accounting are process-global, and a
// user's `crystalctl mockup` is a fresh process too.
type coldJob struct {
	Fabric string `json:"fabric"` // "mdc" or "sdc"
	Shards int    `json:"shards"`
	Seed   int64  `json:"seed"` // draws the sampled pairs; the emulation runs on emulationSeed
	// StartNS is the parent's clock just before it started the child, so
	// set-up time includes process start.
	StartNS int64 `json:"start_ns"`
	// Trace wraps every stage in a span and adds the teardown stage and the
	// forced-GC live-heap read.
	// Probes additionally runs the layer probes on the converged fabric.
	Trace  bool `json:"trace,omitempty"`
	Probes bool `json:"probes,omitempty"`
	Smoke  bool `json:"smoke,omitempty"` // probes at a twentieth of their iterations
}

// coldOut is the child's answer on stdout.
type coldOut struct {
	SetupS      float64            `json:"setup_s"`
	MockupWallS float64            `json:"mockup_wall_s"`
	Exact       map[string]float64 `json:"exact"`
	Attempted   int                `json:"attempted"`
	Violations  []string           `json:"violations,omitempty"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

func fabricSpec(name string) (topo.ClosSpec, error) {
	switch name {
	case "mdc":
		return topo.MDC(), nil
	case "sdc":
		return topo.SDC(), nil
	}
	return topo.ClosSpec{}, fmt.Errorf("unknown fabric %q", name)
}

// runCold mocks one fabric up from nothing and checks what came out.
func runCold(job coldJob) (*coldOut, error) {
	clos, err := fabricSpec(job.Fabric)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if job.Trace {
		tr = newTracer()
	}
	out := &coldOut{Exact: map[string]float64{}, Attempted: 1}
	fail := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	var (
		net     *topo.Network
		o       *core.Orchestrator
		prep    *core.Preparation
		em      *core.Emulation
		metrics core.Metrics
		fibs    map[string]rib.Snapshot
		cost    hostCost
		runErr  error
	)
	tr.beginOp()
	tr.do("cold", func() {
		tr.do("topo.generate", func() {
			net = topo.GenerateClos(clos)
			topo.AttachWAN(net, clos, 2)
		})
		out.SetupS = time.Since(time.Unix(0, job.StartNS)).Seconds()

		before := startCost()
		start := time.Now()
		tr.do("core.prepare", func() {
			o = core.New(core.Options{Seed: emulationSeed, Shards: job.Shards})
			prep, runErr = o.Prepare(core.PrepareInput{Network: net})
		})
		if runErr != nil {
			return
		}
		tr.do("core.mockup_build", func() { em, runErr = o.Mockup(prep, false) })
		if runErr != nil {
			return
		}
		tr.do("core.converge", func() { metrics, runErr = em.RunUntilConverged(0) })
		if runErr != nil {
			return
		}
		out.MockupWallS = time.Since(start).Seconds()
		tr.do("bench.cost", func() { cost = before.stop(tr != nil) }) // a forced GC when traced: not core's time

		tr.do("core.pull_fibs", func() { fibs = em.PullFIBs() })
		tr.do("bench.checks", func() { out.Attempted += checkCold(em, fibs, job.Seed, fail) })
		// The checkpoint is cheap (engine counters and a frozen reference;
		// the copy happens at fork), and it is the public view of every
		// engine's counters: the master's and, under sharding, each domain's.
		var snap *checkpoint.Snapshot
		tr.do("core.checkpoint", func() { snap, runErr = em.Checkpoint() })
		if runErr != nil {
			return
		}
		out.Exact["sim.events"] = float64(firedEvents(snap))
		out.Exact["sim.route_ready_virtual_s"] = metrics.RouteReady.Seconds()
		out.Exact["sim.network_ready_virtual_s"] = metrics.NetworkReady.Seconds()
		out.Exact["rib.routes"] = float64(countRoutes(fibs))
		if tr == nil {
			return
		}
		if job.Probes {
			tr.do("bench.probes", func() { out.Layer = runProbes(em, job.Seed, job.Smoke) })
		}
		tr.do("core.teardown", func() {
			em.Teardown()
			o.Destroy(prep)
		})
	})
	if runErr != nil {
		return nil, runErr
	}
	if tr == nil {
		return out, nil
	}

	if out.Layer == nil {
		out.Layer = map[string]float64{}
	}
	parts, _, unattributed := stageSums(tr.spans, "cold")
	for _, stage := range []string{"topo.generate", "core.prepare", "core.mockup_build",
		"core.converge", "core.pull_fibs", "core.checkpoint", "core.teardown"} {
		out.Layer[stage+"_ms"] = ms(parts[stage])
	}
	out.Layer["core.unattributed_ms"] = ms(unattributed)
	out.Layer["trace.mockup_wall_s"] = out.MockupWallS
	for k, v := range out.Exact {
		out.Layer[k] = v
	}
	cost.report(out.Layer, out.Exact["sim.events"], out.Exact["rib.routes"], parts["core.converge"])
	out.Spans = tr.spans
	return out, nil
}

// dest is one originated server prefix and the device that owns it.
type dest struct {
	owner string
	pfx   netpkt.Prefix
}

// fabricDests lists the emulated fabric devices (speakers excluded: they
// replay recorded routes, not their own state), sorted, and every server
// prefix they originate.
func fabricDests(em *core.Emulation) (emulated []string, dests []dest) {
	plan := em.Plan()
	emulated = append(append(emulated, plan.Internal...), plan.Boundary...)
	sort.Strings(emulated)
	for _, name := range emulated {
		for _, p := range em.Network().MustDevice(name).Originated {
			dests = append(dests, dest{name, p})
		}
	}
	return emulated, dests
}

// liveLookup resolves longest-prefix matches straight off the devices' live
// FIBs, as the scenario runner's invariant sweep does.
func liveLookup(em *core.Emulation) batfish.LookupFunc {
	return func(dev string, dst netpkt.IP) (*rib.Entry, bool) {
		d := em.Devices[dev]
		if d == nil {
			return nil, false
		}
		return d.FIB().Lookup(dst)
	}
}

// checkCold verifies a converged fabric and returns how many checks it
// attempted; each failure is reported through fail.
func checkCold(em *core.Emulation, fibs map[string]rib.Snapshot, seed int64, fail func(string, ...any)) int {
	emulated, dests := fabricDests(em)

	// 1. Every emulated device holds a route for every server prefix the
	// fabric originates.
	for _, name := range emulated {
		have := make(map[netpkt.Prefix]bool, len(fibs[name]))
		for _, e := range fibs[name] {
			have[e.Prefix] = true
		}
		missing := 0
		for _, d := range dests {
			if !have[d.pfx] {
				missing++
			}
		}
		if missing > 0 {
			fail("%s: FIB lacks %d of %d originated server prefixes", name, missing, len(dests))
		}
	}

	// 2. A seeded sample of (device, server host) pairs is delivered when
	// walked hop by hop through the pulled FIBs.
	rng := rand.New(rand.NewSource(seed))
	w := batfish.NewWalker(fibs, em.Configs())
	for i := 0; i < samplePairs; i++ {
		src := emulated[rng.Intn(len(emulated))]
		d := dests[rng.Intn(len(dests))]
		for d.owner == src {
			d = dests[rng.Intn(len(dests))]
		}
		if host := d.pfx.Addr + 1; !w.Delivered(src, host) {
			fail("%s -> %s not delivered", src, host)
		}
	}
	return len(emulated) + samplePairs
}

// firedEvents is how many events the whole ensemble has fired up to the
// checkpoint: the master engine plus, under sharding, every domain engine.
func firedEvents(snap *checkpoint.Snapshot) uint64 {
	n := snap.Engine.Fired
	for _, d := range snap.Shards {
		n += d.Fired
	}
	return n
}

func countRoutes(fibs map[string]rib.Snapshot) int {
	n := 0
	for _, s := range fibs {
		n += len(s)
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostCost is what one operation cost the host besides wall-clock: memory,
// collector work and CPU, read from the runtime and the kernel around the
// operation. The reads sit outside every timed interval.
type hostCost struct {
	mem      runtime.MemStats
	cpu      time.Duration
	wall     time.Time
	elapsed  time.Duration
	liveHeap uint64
}

func startCost() hostCost {
	var c hostCost
	runtime.ReadMemStats(&c.mem)
	c.cpu = cpuTime()
	c.wall = time.Now()
	return c
}

// stop turns a start snapshot into deltas. withLiveHeap forces a collection
// first so HeapAlloc is retained state only; it is skipped on untraced runs,
// where a forced collection would distort peak RSS.
func (c hostCost) stop(withLiveHeap bool) hostCost {
	d := hostCost{elapsed: time.Since(c.wall), cpu: cpuTime() - c.cpu}
	runtime.ReadMemStats(&d.mem)
	d.mem.TotalAlloc -= c.mem.TotalAlloc
	d.mem.Mallocs -= c.mem.Mallocs
	d.mem.NumGC -= c.mem.NumGC
	d.mem.PauseTotalNs -= c.mem.PauseTotalNs
	if withLiveHeap {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		d.liveHeap = m.HeapAlloc
	}
	return d
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const mib = 1 << 20

// report writes the derived per-layer metrics of one operation into m. ops
// is how many operations the cost covers; events and routes scale the
// per-event and per-route figures; busy is the time the simulator itself ran.
func (c hostCost) report(m map[string]float64, events, routes float64, busy time.Duration) {
	c.reportPerOp(m, 1, events)
	if busy > 0 {
		m["sim.events_per_s"] = events / busy.Seconds()
	}
	hits, misses, size := bgp.InternStats()
	if hits+misses > 0 {
		m["bgp.intern_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["bgp.intern_size"] = float64(size)
	dense := float64(rib.Stats().DenseBytes)
	m["rib.dense_mb"] = dense / mib
	if routes > 0 {
		m["rib.bytes_per_route"] = dense / routes
	}
	m["mem.live_heap_mb"] = float64(c.liveHeap) / mib
}

func (c hostCost) reportPerOp(m map[string]float64, ops int, events float64) {
	n := float64(ops)
	m["mem.alloc_mb_per_op"] = float64(c.mem.TotalAlloc) / mib / n
	m["trace.mallocs_per_op"] = float64(c.mem.Mallocs) / n
	if events > 0 {
		m["mem.allocs_per_event"] = float64(c.mem.Mallocs) / n / events
	}
	m["gc.cycles"] = float64(c.mem.NumGC) / n
	m["gc.pause_total_ms"] = float64(c.mem.PauseTotalNs) / 1e6 / n
	m["gc.cpu_fraction"] = c.mem.GCCPUFraction
	m["proc.cpu_s_per_op"] = c.cpu.Seconds() / n
	if c.elapsed > 0 {
		m["proc.cpu_utilisation"] = c.cpu.Seconds() / c.elapsed.Seconds()
	}
}

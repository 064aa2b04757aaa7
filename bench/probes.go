package main

import (
	"math/rand"
	"runtime"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/bgp"
	"crystalnet/internal/core"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/parallel"
	"crystalnet/internal/phynet"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
	"crystalnet/internal/topo"
)

// probeBatches is how many times each probe repeats its fixed iteration
// count; the median batch is reported.
const probeBatches = 5

// timeBatches runs fn(iters) probeBatches times and returns the median cost
// of one iteration. Iteration counts are fixed, so two commits do the same
// work.
func timeBatches(iters int, fn func(n int)) time.Duration {
	fn(iters / 10) // warm caches and lazy set-up before timing
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		fn(iters)
		per[b] = float64(time.Since(start)) / float64(iters)
	}
	return time.Duration(median(per))
}

// allocsPerOp counts heap allocations per iteration of fn.
func allocsPerOp(iters int, fn func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn(iters)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

var sink int // keeps probe results alive so the compiler cannot drop the calls

// runProbes calls single layers directly, with inputs taken from the
// converged fabric em where the layer works on fabric state.
func runProbes(em *core.Emulation, seed int64, smoke bool) map[string]float64 {
	scale := 1
	if smoke {
		scale = 20 // run the probes' code without their cost
	}
	timeOp := func(iters int, fn func(n int)) time.Duration { return timeBatches(max(iters/scale, 1), fn) }
	m := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))

	names, dests := fabricDests(em)
	var spine, tor string
	for _, name := range names {
		d := em.Network().MustDevice(name)
		if spine == "" && d.Layer == topo.LayerSpine {
			spine = name
		}
		if tor == "" && d.Layer == topo.LayerToR {
			tor = name
		}
	}
	hosts := make([]netpkt.IP, 1024)
	for i := range hosts {
		hosts[i] = dests[rng.Intn(len(dests))].pfx.Addr + 1 + netpkt.IP(rng.Intn(200))
	}

	// trie + rib: the read and copy side of the forwarding tables.
	fib := em.Devices[spine].FIB()
	m["trie.lookup_ns"] = float64(timeOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := fib.Lookup(hosts[i%len(hosts)]); ok {
				sink++
			}
		}
	}))
	snaps := make(map[string]rib.Snapshot, len(names))
	m["rib.snapshot_ms"] = ms(timeOp(1, func(int) {
		for _, name := range names {
			snaps[name] = em.Devices[name].FIB().Snapshot()
		}
	}))
	m["rib.fib_clone_ms"] = ms(timeOp(1, func(int) {
		for _, name := range names {
			sink += em.Devices[name].FIB().Clone().Len()
		}
	}))
	m["rib.diff_ms"] = ms(timeOp(1, func(int) {
		for _, name := range names {
			sink += len(em.Devices[name].FIB().DiffAgainst(snaps[name], rib.Strict))
		}
	}))

	// bgp codec on an UPDATE shaped like the fabric's: the server prefixes
	// behind a ToR/leaf/spine path.
	attrs := &bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.NewPath(topo.SpineAS, topo.PodAS(0), topo.ToRAS(0))}
	nlri := make([]netpkt.Prefix, min(len(dests), bgp.MaxNLRIPerUpdate(attrs)))
	for i := range nlri {
		nlri[i] = dests[i].pfx
	}
	update := &bgp.Update{Attrs: attrs, NextHop: hosts[0], NLRI: nlri}
	roundtrip := func(n int) {
		for i := 0; i < n; i++ {
			if d, err := bgp.Decode(bgp.MarshalUpdate(update)); err == nil {
				sink += len(d.Update.NLRI)
			}
		}
	}
	m["bgp.update_roundtrip_ns"] = float64(timeOp(2000, roundtrip))
	m["bgp.update_allocs"] = allocsPerOp(2000, roundtrip)

	// netpkt + phynet: the frame path between devices.
	for _, size := range []int{64, 1500} {
		inner := make([]byte, size)
		vxlan := func(n int) {
			for i := 0; i < n; i++ {
				enc := netpkt.EncapVXLAN(77, 1, 2, netpkt.MAC{3}, netpkt.MAC{4}, 40000, inner)
				if _, in, err := netpkt.DecapVXLAN(enc); err == nil {
					sink += len(in)
				}
			}
		}
		if size == 64 {
			m["netpkt.vxlan_roundtrip_ns_64"] = float64(timeOp(20_000, vxlan))
		} else {
			m["netpkt.vxlan_roundtrip_ns_1500"] = float64(timeOp(20_000, vxlan))
			m["netpkt.vxlan_allocs"] = allocsPerOp(20_000, vxlan)
		}
	}
	m["phynet.send_cross_host_ns"] = float64(timeOp(50_000, phynetSend(true)))
	m["phynet.send_same_host_ns"] = float64(timeOp(50_000, phynetSend(false)))

	// sim + parallel: the two schedulers and the pool under the sharded one.
	m["sim.engine_ns_per_event"] = float64(timeOp(500_000, func(n int) {
		eng := sim.NewEngine(1)
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(time.Microsecond, tick)
			}
		}
		for c := 0; c < 64 && c < n; c++ { // 64 timers pending, as a busy fabric keeps its heap deep
			eng.After(time.Duration(c+1), tick)
		}
		fired, _ := eng.Run(0)
		sink += int(fired)
	}))
	workers := runtime.GOMAXPROCS(0)
	const domains = 16
	m["sim.shardset_ns_per_event"] = float64(timeOp(500_000, func(n int) { shardRun(domains, workers, 64, n) }))
	m["sim.shardset_instant_ns"] = float64(timeOp(20_000, func(n int) { shardRun(domains, workers, 1, n*domains) }))
	pool := parallel.NewPool(workers)
	counts := make([]int, domains)
	m["parallel.pool_do_ns"] = float64(timeOp(50_000, func(n int) {
		for i := 0; i < n; i++ {
			pool.Do(domains, func(d int) { counts[d]++ })
		}
	}))
	pool.Close()

	// dataplane + batfish: the two walkers over live FIBs.
	fwd := em.Devices[tor].Forwarder()
	meta := &dataplane.PacketMeta{Src: hosts[0], Proto: netpkt.ProtoTCP, SrcPort: 1024, DstPort: 80, TTL: 64}
	m["dataplane.forward_ns"] = float64(timeOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			meta.Dst, meta.SrcPort = hosts[i%len(hosts)], uint16(i)
			sink += int(fwd.Forward("", meta).Verdict)
		}
	}))
	m["dataplane.forward_batch_ns"] = float64(timeOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			meta.Dst = hosts[i%len(hosts)]
			_, shares := fwd.ForwardBatch("", meta, 1000, uint64(i))
			sink += len(shares)
		}
	}))
	cfgs, lookup := em.Configs(), liveLookup(em)
	m["batfish.delivered_ns"] = float64(timeOp(20_000, func(n int) {
		// A fresh walker per batch, as every invariant sweep builds one: the
		// figure includes the memo's cold start.
		w := batfish.NewLiveWalker(lookup, cfgs)
		for i := 0; i < n; i++ {
			if w.Delivered(names[i%len(names)], hosts[i%len(hosts)]) {
				sink++
			}
		}
	}))
	return m
}

// phynetSend returns a probe body that pushes n 256-byte frames over one
// virtual link of a standalone fabric and drains the engine, so a frame
// costs Send plus its delivery event. cross puts the two containers on
// different hosts, which adds the VXLAN encap/decap.
func phynetSend(cross bool) func(n int) {
	eng := sim.NewEngine(1)
	f := phynet.NewFabric(eng, phynet.LinuxBridge)
	ha := f.AddHost("vm-a")
	hb := ha
	if cross {
		hb = f.AddHost("vm-b")
	}
	a := ha.AddContainer("a").AddIface("et0", netpkt.MAC{2, 0, 0, 0, 0, 1})
	cb := hb.AddContainer("b")
	b := cb.AddIface("et0", netpkt.MAC{2, 0, 0, 0, 0, 2})
	f.Connect(a, b)
	cb.Attach(func(_ string, frame []byte) { sink += len(frame) })
	return func(n int) {
		for i := 0; i < n; i++ {
			f.Send(a, make([]byte, 256))
			if i%64 == 63 {
				eng.Run(0)
			}
		}
		eng.Run(0)
	}
}

// shardRun drives a ShardSet of `domains` engines through about `events`
// events in total, perInstant of them per domain at each virtual instant;
// every eighth event hands its successor to the next domain, so the barrier
// flushes staged deliveries as a converging fabric makes it. A tick only
// ever touches the budget of the domain it runs in.
func shardRun(domains, workers, perInstant, events int) {
	s := sim.NewShardSet(sim.NewEngine(1), 1, domains, workers)
	left := make([]int, domains)
	ticks := make([]func(), domains)
	for d := range ticks {
		left[d] = events / domains
		ticks[d] = func() {
			if left[d]--; left[d] < perInstant {
				return // budget spent: let the domain's chains run out
			}
			next := d
			if left[d]%8 == 0 {
				next = (d + 1) % domains
			}
			s.ScheduleAfter(d, next, time.Microsecond, ticks[next])
		}
		for c := 0; c < perInstant; c++ {
			s.Engine(d).After(time.Microsecond, ticks[d])
		}
	}
	fired, _ := s.Run(0)
	sink += int(fired)
}

package main

// metricDef names one metric, its unit and which way is better. The tables
// below are the single list of what the benchmark reports; BENCHMARK.json
// repeats them for the driver and a test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is, for an end-to-end metric, the share of the old median by
	// which the new one may be worse before -diff calls it regressed: the
	// issue's figures, which -diff and -selfcheck apply to ledger documents.
	// Where a document's own spread is wider than that, the row reads
	// unresolved.
	Bound float64
	// DriverBound is the metric's bound in BENCHMARK.json; positive marks the
	// end-to-end metrics a driver run (--trace 0) prints. The driver refuses a
	// benchmark whose run-to-run spread exceeds its bound, so this one is set
	// from the spread measured on the host (README.md, "Bounds"), not from
	// what one would like to resolve. rehearse_p90_ms has none: it needs 100
	// timed requests, which an M-DC flap cannot send inside a driver run.
	// error_rate has none: it is 0 on a healthy commit, and the driver reads
	// failures from attempted/failed instead.
	DriverBound float64
	// Exact marks a count that repeats exactly for a fixed seed.
	Exact bool
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, DriverBound: 0.25},
	{Name: "mockup_wall_s", Unit: "s", Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: "rehearse_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: "rehearse_p90_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "rehearsals_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, DriverBound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, DriverBound: 0.25},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0},
}

var perLayer = []metricDef{
	// Cold stage spans: they add up to the cold child's total.
	{Name: "topo.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "core.mockup_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pull_fibs_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "core.teardown_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	// Warm stage spans: one replayed request.
	{Name: "scenario.parse_us", Unit: "us", Better: "lower"},
	{Name: "serve.acquire_us", Unit: "us", Better: "lower"},
	{Name: "core.fork_ms", Unit: "ms", Better: "lower"},
	{Name: "core.step_converge_ms", Unit: "ms", Better: "lower"},
	{Name: "batfish.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.settle_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.report_json_us", Unit: "us", Better: "lower"},
	{Name: "scenario.run_unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	// Simulated quantities (the paper's Figure 8) and other exact counts:
	// the fidelity guard. A host-only optimisation leaves them identical.
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.step_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.route_ready_virtual_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "sim.network_ready_virtual_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "batfish.walks", Unit: "count", Better: "lower", Exact: true},
	{Name: "traffic.aggregates", Unit: "count", Better: "lower", Exact: true},
	{Name: "rib.routes", Unit: "count", Better: "lower", Exact: true},
	// Derived host costs.
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bgp.intern_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bgp.intern_size", Unit: "count", Better: "lower"},
	{Name: "rib.dense_mb", Unit: "MB", Better: "lower"},
	{Name: "rib.bytes_per_route", Unit: "B", Better: "lower"},
	{Name: "mem.live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "mem.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "mem.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "gc.cycles", Unit: "count", Better: "lower"},
	{Name: "gc.pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "gc.cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "proc.cpu_s_per_op", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "traffic.flows_settled_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	// Layer probes: direct calls with fixed iteration counts.
	{Name: "trie.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "rib.fib_clone_ms", Unit: "ms", Better: "lower"},
	{Name: "rib.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "rib.diff_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.update_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "bgp.update_allocs", Unit: "count", Better: "lower"},
	{Name: "netpkt.vxlan_roundtrip_ns_64", Unit: "ns", Better: "lower"},
	{Name: "netpkt.vxlan_roundtrip_ns_1500", Unit: "ns", Better: "lower"},
	{Name: "netpkt.vxlan_allocs", Unit: "count", Better: "lower"},
	{Name: "phynet.send_cross_host_ns", Unit: "ns", Better: "lower"},
	{Name: "phynet.send_same_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.shardset_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.shardset_instant_ns", Unit: "ns", Better: "lower"},
	{Name: "parallel.pool_do_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.forward_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.forward_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "batfish.delivered_ns", Unit: "ns", Better: "lower"},
}

package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/core"
	"crystalnet/internal/rib"
	"crystalnet/internal/topo"
)

// This file is the DESIGN.md §10 scale benchmark: converge one whole fabric
// (S-DC through L-DC) wall-clock-measured, with the process memory counters
// that motivated global attrs interning and the Dense RIB layout. Unlike
// the Figure 8 sweep, which reports virtual-time latencies, this one
// reports *host* costs — wall-clock, live heap, allocation volume, peak
// RSS — because those are what bound the fabric size one machine can hold.

// ScaleConfig selects one fabric for the scale benchmark.
type ScaleConfig struct {
	// Spec is the fabric to converge (topo.SDC/MDC/LDCScaled).
	Spec topo.ClosSpec
	// Shards, when positive, runs convergence sharded with this many
	// workers (core.Options.Shards); 0 uses the classic single engine.
	Shards int
	// Seed seeds the emulation (0 means 1).
	Seed int64
	// Baseline additionally runs a non-interned pass for the memory
	// comparison. It runs AFTER the interned pass: peak RSS is monotonic
	// per process, so the cheaper configuration must be measured first.
	Baseline bool
}

// ScaleResult is one measured convergence at scale.
type ScaleResult struct {
	Fabric   string `json:"fabric"`
	Devices  int    `json:"devices"`
	VMs      int    `json:"vms"`
	Interned bool   `json:"interned"`
	Shards   int    `json:"shards"`

	// WallClock is host time for mockup+convergence; RouteReady is the
	// virtual-time metric for cross-checking against Figure 8.
	WallClock  time.Duration `json:"wall_clock_ns"`
	RouteReady time.Duration `json:"route_ready_ns"`
	Events     uint64        `json:"events"`

	// PeakHeapBytes is the maximum HeapAlloc sampled while the pass ran —
	// the paper-facing "can one machine hold this fabric" number, covering
	// both retained state and allocation churn between GCs. LiveHeapBytes
	// is HeapAlloc after a forced GC at convergence — the retained routing
	// state alone. TotalAllocBytes is the pass's allocation volume
	// (TotalAlloc delta). PeakRSSKB is ru_maxrss, monotonic over the
	// process lifetime.
	PeakHeapBytes   uint64 `json:"peak_heap_bytes"`
	LiveHeapBytes   uint64 `json:"live_heap_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	PeakRSSKB       int64  `json:"peak_rss_kb"`

	InternHits    uint64 `json:"intern_hits"`
	InternMisses  uint64 `json:"intern_misses"`
	InternSize    int    `json:"intern_size"`
	RIBDenseBytes int64  `json:"rib_dense_bytes"`
}

// Scale converges cfg.Spec once interned (and, with cfg.Baseline, once
// non-interned) and reports the host-cost measurements. Interning is
// restored to its default (on) before returning.
func Scale(cfg ScaleConfig) []ScaleResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	defer bgp.SetInterning(true)
	defer rib.SetHopSharing(true)
	out := []ScaleResult{runScaleOnce(cfg, true)}
	if cfg.Baseline {
		out = append(out, runScaleOnce(cfg, false))
	}
	return out
}

func runScaleOnce(cfg ScaleConfig, interned bool) ScaleResult {
	// The ablation switches off attrs interning and, on the same switch,
	// hop-group sharing and the lazy trie in the FIBs. The Adj-RIBs keep the
	// dense layout in both passes: the seed's per-route map layout was
	// deleted once the fork came to share the dense tables (EXPERIMENTS.md
	// records the figures it produced and the commit that reproduces them).
	bgp.SetInterning(interned)
	rib.SetHopSharing(interned)
	// Run both passes at GOGC=50 so peak heap tracks retained state rather
	// than GC headroom: at the default GOGC=100 the collector lets the heap
	// double past live before collecting, and that headroom — pure
	// allocation churn — would dominate the peak of whichever pass churns
	// more relative to what it retains. Applied identically to both passes,
	// so the comparison stays apples-to-apples.
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	ribBefore := rib.Stats().DenseBytes
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Sample HeapAlloc on a wall-clock ticker while the pass runs. The
	// sampler only reads runtime stats — it never touches engine state, so
	// the emulation's determinism is unaffected.
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	var peakHeap uint64
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peakHeap {
					peakHeap = m.HeapAlloc
				}
			}
		}
	}()

	start := time.Now()
	n := topo.GenerateClos(cfg.Spec)
	topo.AttachWAN(n, cfg.Spec, 2)
	o := core.New(core.Options{Seed: cfg.Seed, Shards: cfg.Shards})
	prep, err := o.Prepare(core.PrepareInput{Network: n})
	if err != nil {
		panic(err)
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		panic(err)
	}
	metrics, err := em.RunUntilConverged(0)
	if err != nil {
		panic(err)
	}
	wall := time.Since(start)
	close(stopSampler)
	<-samplerDone

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peakHeap {
		peakHeap = after.HeapAlloc
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	hits, misses, size := bgp.InternStats()

	res := ScaleResult{
		Fabric:   cfg.Spec.Name,
		Devices:  len(em.Devices),
		VMs:      len(prep.VMs()),
		Interned: interned,
		Shards:   cfg.Shards,

		WallClock:  wall,
		RouteReady: metrics.RouteReady,
		Events:     o.Eng.Fired(),

		PeakHeapBytes:   peakHeap,
		LiveHeapBytes:   after.HeapAlloc,
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
		PeakRSSKB:       int64(ru.Maxrss),

		InternHits:    hits,
		InternMisses:  misses,
		InternSize:    size,
		RIBDenseBytes: rib.Stats().DenseBytes - ribBefore,
	}
	em.Teardown()
	o.Destroy(prep)
	return res
}

// FormatScale renders the scale results plus the interned/baseline live-heap
// ratio when both passes are present.
func FormatScale(rs []ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %8s %5s %9s %7s %11s %11s %11s %11s %9s %10s\n",
		"fabric", "devices", "vms", "interned", "shards", "wall", "peak-heap", "live-heap", "alloc", "rss-peak", "hit-rate")
	mb := func(v uint64) string { return fmt.Sprintf("%.1f MB", float64(v)/(1<<20)) }
	var interned, baseline *ScaleResult
	for i := range rs {
		r := &rs[i]
		rate := "-"
		if r.InternHits+r.InternMisses > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(r.InternHits)/float64(r.InternHits+r.InternMisses))
		}
		fmt.Fprintf(&b, "%-9s %8d %5d %9v %7d %11s %11s %11s %11s %9s %10s\n",
			r.Fabric, r.Devices, r.VMs, r.Interned, r.Shards,
			r.WallClock.Round(time.Millisecond),
			mb(r.PeakHeapBytes), mb(r.LiveHeapBytes), mb(r.TotalAllocBytes),
			mb(uint64(r.PeakRSSKB)*1024), rate)
		if r.Interned {
			interned = r
		} else {
			baseline = r
		}
	}
	if interned != nil && baseline != nil {
		fmt.Fprintf(&b, "\npeak heap: baseline/interned = %.2fx (live at convergence: %.2fx, alloc volume: %.2fx)\n",
			float64(baseline.PeakHeapBytes)/float64(interned.PeakHeapBytes),
			float64(baseline.LiveHeapBytes)/float64(interned.LiveHeapBytes),
			float64(baseline.TotalAllocBytes)/float64(interned.TotalAllocBytes))
	}
	return b.String()
}

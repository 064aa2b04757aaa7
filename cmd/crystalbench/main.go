// Command crystalbench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's format. See EXPERIMENTS.md for
// the paper-vs-measured record.
//
// Usage:
//
//	crystalbench [-reps N] [-ldcscale N] [-quick] [-workers N]
//	             [-only table1,figure8,...] [-json]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// -quick runs a reduced sweep (fewer repetitions, no M-DC/L-DC in the
// latency figures). -ldcscale divides L-DC's pod count; 1 attempts the full
// 4636-device fabric (needs tens of GB of RAM). -workers bounds the worker
// pool that fans independent emulation runs across cores (0 = GOMAXPROCS).
// -json emits the raw experiment structs as one JSON object instead of the
// formatted tables.
//
// Wall-clock, memory and throughput are not measured here: the repo's one
// perf harness is bench/ (`go run ./bench`, bench/README.md).
//
// -cpuprofile / -memprofile write pprof profiles covering
// the selected experiments, so perf work is reproducible without editing
// code:
//
//	crystalbench -only figure8 -quick -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// A traced mockup (a Chrome trace_event file of the phase timeline) comes
// from `crystalctl -trace FILE mockup` (docs/OBSERVABILITY.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"crystalnet/internal/experiments"
)

// experimentKeys are the values -only accepts, in output order.
var experimentKeys = []string{
	"table1", "figure1", "figure7", "table3", "figure8", "figure9",
	"sec83", "table4", "table4solve", "sec9",
}

// parseOnly turns the -only argument into the set of selected experiments.
// An empty argument selects everything (a nil set); a key outside
// experimentKeys is an error rather than a silently empty run.
func parseOnly(arg string) (map[string]bool, error) {
	if arg == "" {
		return nil, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(arg, ",") {
		k = strings.TrimSpace(k)
		if !slices.Contains(experimentKeys, k) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", k, strings.Join(experimentKeys, ","))
		}
		want[k] = true
	}
	return want, nil
}

func main() {
	reps := flag.Int("reps", 5, "repetitions per Figure 8 configuration (paper: 10)")
	ldcScale := flag.Int("ldcscale", 8, "L-DC downscale divisor (1 = full fabric)")
	quick := flag.Bool("quick", false, "reduced sweep: S-DC only, 2 reps")
	workers := flag.Int("workers", 0, "worker pool size for independent emulation runs (0 = GOMAXPROCS)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(experimentKeys, ","))
	jsonOut := flag.Bool("json", false, "emit raw experiment structs as JSON instead of formatted tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the runs) to `file`")
	flag.Parse()

	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crystalbench: -only: %v\n", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: start CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	run := func(key string) bool { return want == nil || want[key] }
	section := func(title string) { fmt.Printf("\n==== %s ====\n\n", title) }

	// With -json, collect every selected experiment's raw structs here and
	// emit a single object at the end.
	raw := map[string]any{}
	emit := func(key, title, formatted string, value any) {
		if *jsonOut {
			raw[key] = value
			return
		}
		section(title)
		fmt.Print(formatted)
	}

	if run("table1") {
		rows := experiments.Table1()
		emit("table1", "Table 1 — incident root causes: emulation vs verification coverage",
			experiments.FormatTable1(rows), rows)
	}
	if run("figure1") {
		r := experiments.Figure1(200)
		emit("figure1", "Figure 1 — vendor-divergent IP aggregation: traffic imbalance at R8",
			experiments.FormatFigure1(r), r)
	}
	if run("figure7") {
		r := experiments.Figure7()
		emit("figure7", "Figure 7 — safe vs unsafe static boundaries",
			experiments.FormatFigure7(r), r)
	}
	if run("table3") {
		rows := experiments.Table3()
		emit("table3", "Table 3 — evaluation datacenter fabrics",
			experiments.FormatTable3(rows), rows)
	}
	if run("figure8") {
		cfg := experiments.Figure8Config{Reps: *reps, LDCScale: *ldcScale, Workers: *workers}
		if *quick {
			cfg.Reps, cfg.SkipMDC, cfg.SkipLDC = 2, true, true
		}
		points := experiments.Figure8(cfg)
		note := fmt.Sprintf("\n(virtual-time measurements on the simulated cloud; L-DC runs at 1/%d pod scale unless -ldcscale=1)\n", *ldcScale)
		emit("figure8", "Figure 8 — mockup / network-ready / route-ready / clear latencies",
			experiments.FormatFigure8(points)+note, points)
	}
	if run("figure9") {
		series := experiments.Figure9(*ldcScale, *quick, *workers)
		emit("figure9", "Figure 9 — p95 per-VM CPU utilization during Mockup (by minute)",
			experiments.FormatFigure9(series), series)
	}
	if run("sec83") {
		r := experiments.Sec83()
		emit("sec83", "§8.3 — reload latency (two-layer vs strawman) and VM recovery",
			experiments.FormatSec83(r), r)
	}
	if run("table4") {
		rows := experiments.Table4(*workers)
		emit("table4", "Table 4 — safe-boundary emulation scales in L-DC",
			experiments.FormatTable4(rows), rows)
	}
	if run("table4solve") {
		rows := experiments.Table4Solve(*workers)
		emit("table4solve", "Table 4 (generalized) — solver vs hand-picked boundaries in L-DC",
			experiments.FormatTable4Solve(rows), rows)
	}
	if run("sec9") {
		r := experiments.CrossValidate(*workers)
		emit("sec9", "§9 — FIB cross-validation: strict vs ECMP-aware comparator",
			experiments.FormatCrossValidate(r), r)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(raw); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -json: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Println()
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: write heap profile: %v\n", err)
			os.Exit(1)
		}
	}
}

// Command crystalctl is the operator CLI for CrystalNet: it prepares and
// mocks up an emulation of one of the evaluation fabrics (or a safe
// boundary within one) and runs a validation action against it — the
// command-line face of the paper's Table 2 API plus the declarative
// scenario engine.
//
// Usage:
//
//	crystalctl [flags] <command> [args]
//
// Commands:
//
//	plan [-solve d1,d2,...]   compute and print the safe boundary (no emulation);
//	                          -solve searches for the cheapest certified-safe
//	                          emulated set containing the targets and prints a
//	                          ranked Table-4-style report
//	mockup                    mock up, converge, print metrics and a state summary
//	fibs <device>             mock up and dump a device's forwarding table
//	exec <device> <cmd>       mock up and run a CLI command over the mgmt plane
//	trace [<device> <ip>]     mock up; optionally inject a probe packet and
//	                          print its reconstructed path
//	traffic [-flows N] [-json]
//	                          mock up, attach a flow-level traffic matrix
//	                          (docs/TRAFFIC.md), settle it against the converged
//	                          FIBs and print per-class delivery accounting
//	run-scenario <file.json>  execute a rehearsal spec, print its JSON report
//	chaos [file.json]         run a chaos campaign from a base spec (default: sdc)
//	rehearse -server ADDR <file.json>
//	                          submit a spec to a crystald daemon; the response
//	                          is byte-identical to run-scenario's report
//
// run-scenario and chaos build their fabric from the spec file; the
// topology flags (-dc, -ldcscale, -must, -vms) apply to the other commands.
//
// Observability (docs/OBSERVABILITY.md): -trace FILE writes a Chrome
// trace_event file of the run (open in Perfetto), -tracejson FILE the raw
// span/metric JSON, and -obs prints a text summary to stderr. All three
// work with every emulating command; chaos writes one trace-viewer process
// per campaign run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"crystalnet"
	"crystalnet/internal/bgp"
	"crystalnet/internal/boundary"
	"crystalnet/internal/scenario"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `usage: crystalctl [flags] <command> [args]

Commands:
  plan [-solve d1,d2,...]   compute and print the safe boundary (no emulation);
                            -solve searches for the cheapest certified-safe
                            emulated set containing the targets (-alts, -json)
  mockup                    mock up, converge, print metrics and a state summary
  fibs <device>             mock up and dump a device's forwarding table
  exec <device> <command>   mock up and run a CLI command over the mgmt plane
  trace [<device> <ip>]     mock up, optionally inject a probe packet and
                            print its reconstructed path
  traffic [-flows N] [-json]
                            mock up, attach a flow-level traffic matrix and
                            settle it against the converged FIBs; prints
                            per-class delivery/loss/black-hole accounting
                            (docs/TRAFFIC.md)
  run-scenario <file.json>  execute a rehearsal spec, print its JSON report
                            (exits 1 if the scenario fails)
  rehearse -server ADDR <file.json>
                            submit a rehearsal spec to a running crystald
                            daemon (cmd/crystald); prints the same report
                            bytes run-scenario would, exits 1 on failure
  chaos [file.json]         expand a base spec into -n seeded fault sequences
                            and run them on -workers cores (default base: the
                            sdc fabric with the no-blackhole invariant)

run-scenario and chaos take their fabric from the spec file; -dc, -ldcscale,
-must and -vms apply to the other commands. -trace/-tracejson/-obs attach
the Monitor-plane tracer to any emulating command (docs/OBSERVABILITY.md).

Flags:
`)
	flag.PrintDefaults()
}

// subUsage is the per-command usage text printed when a command's own
// arguments are wrong — the global flag dump would bury the one line the
// operator needs.
var subUsage = map[string]string{
	"plan": `crystalctl [flags] plan [-solve dev1,dev2,... [-alts N] [-json]]
  Compute and print the safe boundary without emulating. With -solve,
  search the candidate emulated sets containing the targets, certify
  each (Prop 5.2/5.3, Lemma 5.1 on small nets) and print the cheapest
  plus -alts ranked alternatives; the "spec emulate list" line pastes
  into a scenario spec's "emulate" field.`,
	"fibs": `crystalctl [flags] fibs <device>
  Mock up the fabric and dump <device>'s forwarding table.`,
	"exec": `crystalctl [flags] exec <device> <command...>
  Mock up the fabric and run a CLI command on <device> over the
  management plane (e.g. "show bgp"; vmb devices use "display").`,
	"trace": `crystalctl [flags] trace [<device> <ip>]
  Mock up the fabric. With <device> <ip>, also inject a probe packet and
  print its reconstructed path. The global -trace FILE writes the Chrome
  trace_event file (open in Perfetto); -tracejson and -obs work too.`,
	"traffic": `crystalctl [flags] traffic [-flows N] [-json]
  Mock up the fabric, attach a flow-level traffic matrix seeded from
  -seed, settle it against the converged FIBs and print per-class
  delivery accounting. -json prints the traffic.Report JSON instead.`,
	"run-scenario": `crystalctl [flags] run-scenario <file.json>
  Execute a rehearsal spec and print its JSON report. Exits 1 if the
  scenario fails.`,
	"rehearse": `crystalctl rehearse -server ADDR [-tenant NAME] <file.json>
  Submit a rehearsal spec to a running crystald daemon and print the
  returned JSON report (byte-identical to run-scenario's). Exits 1 if
  the scenario fails or the daemon refuses the request.`,
}

// need enforces a subcommand's argument shape, printing that command's own
// usage block on violation instead of the global one.
func need(cmd string, ok bool) {
	if ok {
		return
	}
	u, found := subUsage[cmd]
	if !found {
		u = "crystalctl [flags] " + cmd
	}
	fmt.Fprintf(os.Stderr, "usage: %s\n", u)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	dc := flag.String("dc", "sdc", "fabric: sdc, mdc or ldc")
	ldcScale := flag.Int("ldcscale", 8, "L-DC downscale divisor")
	must := flag.String("must", "", "comma-separated must-emulate devices (Algorithm 1 grows the boundary)")
	vms := flag.Int("vms", 0, "VM budget override")
	seed := flag.Int64("seed", 1, "simulation seed (run-scenario: overrides the spec's seed when set)")
	n := flag.Int("n", 20, "chaos: number of fault sequences")
	workers := flag.Int("workers", 0, "chaos: worker pool size (0 = all cores, 1 = serial)")
	faults := flag.Int("faults", 6, "chaos: fault events per sequence")
	reuse := flag.Bool("reuse", false, "chaos: converge the base fabric once and fork it per run")
	mtbf := flag.Duration("mtbf", 0, "arm seeded random VM failures with this mean time between failures (0 = off)")
	bootDeadline := flag.Duration("bootdeadline", 0, "supervise VM boots: per-attempt deadline before retry (0 = unsupervised)")
	maxAttempts := flag.Int("maxattempts", 0, "supervised boots: attempts before replacing the VM (0 = default 3)")
	recoveryDeadline := flag.Duration("recoverydeadline", 0, "abandon a VM-failure recovery into degraded mode after this long (0 = unbounded)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the command to `file`")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the run to `file` (open in Perfetto)")
	traceJSON := flag.String("tracejson", "", "write the raw span/event/metric trace JSON to `file`")
	obsSummary := flag.Bool("obs", false, "print a Monitor-plane trace summary to stderr")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	// The rehearse subcommand is a pure HTTP client of crystald: no local
	// emulation, so it takes only its own flags and exits here.
	if cmd == "rehearse" {
		fs := flag.NewFlagSet("rehearse", flag.ExitOnError)
		server := fs.String("server", "", "crystald address (host:port or http:// URL)")
		tenant := fs.String("tenant", "", "tenant identity for the daemon's concurrency quotas")
		fs.Usage = func() { need("rehearse", false) }
		fs.Parse(args)
		args = fs.Args()
		need("rehearse", len(args) == 1 && *server != "")
		os.Exit(rehearseRemote(*server, *tenant, args[0]))
	}

	// The traffic subcommand takes its own flag set: crystalctl traffic
	// -flows 1000000 -json.
	trafficFlows := uint64(1_000_000)
	trafficJSON := false
	if cmd == "traffic" {
		fs := flag.NewFlagSet("traffic", flag.ExitOnError)
		flows := fs.Uint64("flows", 1_000_000, "modeled flow count")
		jsonOut := fs.Bool("json", false, "print the traffic report as JSON")
		fs.Usage = func() { need("traffic", false) }
		fs.Parse(args)
		args = fs.Args()
		need("traffic", len(args) == 0)
		trafficFlows, trafficJSON = *flows, *jsonOut
	}

	// The plan subcommand takes its own flag set: crystalctl plan
	// [-solve dev1,dev2 [-alts N] [-json]].
	planSolve, planAlts, planJSON := "", 3, false
	if cmd == "plan" {
		fs := flag.NewFlagSet("plan", flag.ExitOnError)
		solve := fs.String("solve", "", "comma-separated target devices: search for the cheapest certified-safe emulated set containing them")
		alts := fs.Int("alts", 3, "solve: near-optimal alternatives to rank below the winner")
		jsonOut := fs.Bool("json", false, "solve: print the solver result as JSON instead of the report table")
		fs.Usage = func() { need("plan", false) }
		fs.Parse(args)
		args = fs.Args()
		need("plan", len(args) == 0)
		planSolve, planAlts, planJSON = *solve, *alts, *jsonOut
	}

	// Validate the command and its argument shape before any (expensive)
	// emulation work, so a typo fails in milliseconds with the right usage
	// text.
	switch cmd {
	case "plan", "mockup", "chaos", "traffic":
	case "trace":
		need(cmd, len(args) == 0 || len(args) == 2)
	case "fibs":
		need(cmd, len(args) >= 1)
	case "exec":
		need(cmd, len(args) >= 2)
	case "run-scenario":
		need(cmd, len(args) >= 1)
	default:
		fmt.Fprintf(os.Stderr, "crystalctl: unknown command %q\n\n", cmd)
		flag.Usage()
		os.Exit(2)
	}

	// tracing reports whether any Monitor-plane output was requested; rec
	// is nil otherwise, which keeps the emulation on the untraced fast path.
	tracing := *traceOut != "" || *traceJSON != "" || *obsSummary
	var rec *crystalnet.Recorder
	if tracing {
		rec = crystalnet.NewRecorder()
	}

	// Failure-path knobs (DESIGN.md "Failure domains and recovery"). Boot
	// supervision engages only with a per-attempt deadline; -maxattempts
	// alone has nothing to bound.
	retry := crystalnet.RetryPolicy{}
	if *bootDeadline > 0 {
		retry = crystalnet.RetryPolicy{MaxAttempts: *maxAttempts, BootDeadline: *bootDeadline}
	} else if *maxAttempts > 0 {
		log.Fatal("-maxattempts requires -bootdeadline (supervision needs a per-attempt deadline)")
	}

	switch cmd {
	case "run-scenario":
		need(cmd, len(args) >= 1)
		sp, err := crystalnet.LoadScenario(args[0])
		if err != nil {
			log.Fatal(err)
		}
		opts := crystalnet.ScenarioOptions{
			Rec: rec, MTBF: *mtbf, Retry: retry, RecoveryDeadline: *recoveryDeadline,
		}
		if seedSet {
			opts.SeedOverride = seed
		}
		rep, err := crystalnet.RunScenario(sp, opts)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(rep.JSON())
		fmt.Fprintln(os.Stderr, rep.Summary())
		exportTrace(rec, *traceOut, *traceJSON, *obsSummary)
		if !rep.Passed {
			os.Exit(1)
		}
		return
	case "chaos":
		base := defaultChaosBase()
		if len(args) >= 1 {
			sp, err := crystalnet.LoadScenario(args[0])
			if err != nil {
				log.Fatal(err)
			}
			base = sp
		}
		cfg := crystalnet.CampaignConfig{
			N: *n, Seed: *seed, FaultsPerRun: *faults, Workers: *workers, Reuse: *reuse,
			Trace: tracing,
			MTBF:  *mtbf, Retry: retry, RecoveryDeadline: *recoveryDeadline,
		}
		rep, err := crystalnet.ChaosCampaign(base, cfg)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(rep.JSON())
		fmt.Fprintf(os.Stderr, "%s: %d/%d runs passed\n", rep.Scenario, rep.Passed, rep.Passed+rep.Failed)
		exportCampaignTraces(rep, *traceOut, *traceJSON, *obsSummary)
		if rep.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	var spec crystalnet.ClosSpec
	switch *dc {
	case "sdc":
		spec = crystalnet.SDC()
	case "mdc":
		spec = crystalnet.MDC()
	case "ldc":
		spec = topo.LDCScaled(*ldcScale)
	default:
		log.Fatalf("unknown -dc %q", *dc)
	}
	network := crystalnet.GenerateClos(spec)
	topo.AttachWAN(network, spec, 2)

	// plan -solve searches boundaries without preparing an emulation: no
	// orchestrator, no VMs — just the solver's ranked report.
	if cmd == "plan" && planSolve != "" {
		res, err := boundary.Solve(network, strings.Split(planSolve, ","), boundary.SolveOptions{
			Seed: *seed, MaxAlternatives: planAlts,
		})
		if err != nil {
			log.Fatal(err)
		}
		if planJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Print(res.Report())
		fmt.Printf("\nspec emulate list (best): %s\n", strings.Join(res.Best.Emulated, ","))
		return
	}

	var mustList []string
	if *must != "" {
		mustList = strings.Split(*must, ",")
	}
	o := crystalnet.New(crystalnet.Options{
		Seed: *seed, VMCount: *vms, Rec: rec,
		MTBF: *mtbf, Retry: retry, RecoveryDeadline: *recoveryDeadline,
	})
	prep, err := o.Prepare(crystalnet.PrepareInput{Network: network, MustEmulate: mustList})
	if err != nil {
		log.Fatal(err)
	}
	scale := prep.Plan.Scale()
	fmt.Printf("%s: %d devices, boundary %d, speakers %d, %d VMs",
		spec.Name, scale.TotalEmulated, scale.Boundary, scale.Speakers, len(prep.VMs()))
	if prep.SafetyErr != nil {
		fmt.Printf(" — UNSAFE: %v\n", prep.SafetyErr)
	} else {
		fmt.Printf(" — boundary safe\n")
	}

	if cmd == "plan" {
		fmt.Printf("internal: %s\n", strings.Join(prep.Plan.Internal, " "))
		fmt.Printf("boundary: %s\n", strings.Join(prep.Plan.Boundary, " "))
		fmt.Printf("speakers: %s\n", strings.Join(prep.Plan.Speakers, " "))
		return
	}

	em, err := o.Mockup(prep, false)
	if err != nil {
		log.Fatal(err)
	}
	metrics, err := em.RunUntilConverged(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mockup: network-ready %s, route-ready %s, total %s (virtual), $%.2f/h\n",
		metrics.NetworkReady.Round(time.Second), metrics.RouteReady.Round(time.Second),
		metrics.Mockup.Round(time.Second), o.Cloud.HourlyCostUSD())

	switch cmd {
	case "mockup":
		var running, fibTotal int
		for _, st := range em.PullStates() {
			if st.State == crystalnet.DeviceRunning {
				running++
			}
			fibTotal += st.FIBLen
		}
		full, half := sessionCounts(em)
		fmt.Printf("devices running: %d/%d, BGP sessions established: %d (half-open: %d), total FIB entries: %d\n",
			running, len(em.Devices), full, half, fibTotal)
	case "fibs":
		need(cmd, len(args) >= 1)
		snap, ok := em.PullFIBs()[args[0]]
		if !ok {
			log.Fatalf("no device %q", args[0])
		}
		fmt.Print(snap.String())
	case "exec":
		need(cmd, len(args) >= 2)
		s, err := em.Login(args[0])
		if err != nil {
			log.Fatal(err)
		}
		out, err := s.Exec(strings.Join(args[1:], " "))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	case "traffic":
		if err := em.AttachTraffic(traffic.Spec{Flows: trafficFlows, Seed: *seed}); err != nil {
			log.Fatal(err)
		}
		rep := em.Traffic().Report()
		if trafficJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				log.Fatal(err)
			}
			break
		}
		fmt.Printf("traffic: %d flows in %d aggregates settled\n", rep.Flows, rep.Aggregates)
		fmt.Printf("%-14s %12s %12s %12s %12s %10s\n",
			"class", "flows", "delivered", "blackholed", "lost", "avg-hops")
		for _, c := range rep.Classes {
			fmt.Printf("%-14s %12d %12d %12d %12d %10.2f\n",
				c.Class, c.Flows, c.Delivered, c.Blackholed, c.Lost, c.AvgPathHops)
		}
	case "trace":
		if len(args) == 2 {
			from := args[0]
			dev, ok := em.Devices[from]
			if !ok {
				log.Fatalf("no device %q", from)
			}
			if _, err := em.InjectPackets(from, crystalnet.PacketMeta{
				Src: dev.Config().Loopback.Addr, Dst: crystalnet.MustParseIP(args[1]),
				Proto: crystalnet.ProtoUDP, SrcPort: 33434, DstPort: 33434, TTL: 32,
			}, 1, time.Millisecond); err != nil {
				log.Fatal(err)
			}
			em.RunUntilConverged(0)
			for _, p := range crystalnet.ComputePaths(em.PullPackets()) {
				fmt.Printf("%s (delivered: %v)\n", p, p.Delivered)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	em.Clear(nil)
	o.Eng.Run(0)
	o.Destroy(prep)
	exportTrace(rec, *traceOut, *traceJSON, *obsSummary)
}

// sessionCounts pairs established BGP peerings by their unordered device
// endpoints: a session is fully established only when both sides report
// Established; an endpoint whose remote disagrees (mid-flap, cut link) is
// half-open. Summing per-device counters and halving — the old report —
// silently truncated those odd endpoints away.
func sessionCounts(em *crystalnet.Emulation) (full, half int) {
	pairs := map[[2]string]int{}
	for name, d := range em.Devices {
		r := d.BGP()
		if r == nil {
			continue
		}
		for _, p := range r.Peers() {
			if p.State() != bgp.StateEstablished {
				continue
			}
			key := [2]string{name, p.Config.Name}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			pairs[key]++
		}
	}
	for _, c := range pairs {
		full += c / 2
		half += c % 2
	}
	return full, half
}

// rehearseRemote submits a spec file to a crystald daemon's /v1/rehearse
// and relays the response: report bytes to stdout (they are the exact
// bytes run-scenario would print), summary to stderr. Returns the process
// exit code.
func rehearseRemote(server, tenant, specPath string) int {
	// Validate locally first so a typo fails without a round trip.
	if _, err := crystalnet.LoadScenario(specPath); err != nil {
		log.Print(err)
		return 1
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		log.Print(err)
		return 1
	}
	base := server
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/rehearse", bytes.NewReader(data))
	if err != nil {
		log.Print(err)
		return 1
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Crystalnet-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("rehearse: %v", err)
		return 1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Printf("rehearse: read response: %v", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		log.Printf("rehearse: %s returned %s: %s", server, resp.Status, strings.TrimSpace(string(body)))
		return 1
	}
	os.Stdout.Write(body)
	var rep crystalnet.ScenarioReport
	if err := json.Unmarshal(body, &rep); err != nil {
		log.Printf("rehearse: parse report: %v", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s (request %s, pool %s)\n",
		rep.Summary(), resp.Header.Get("X-Crystalnet-Request"), resp.Header.Get("X-Crystalnet-Pool"))
	if !rep.Passed {
		return 1
	}
	return 0
}

// exportTrace writes one run's trace in the requested formats. A nil
// recorder (tracing off) writes nothing.
func exportTrace(rec *crystalnet.Recorder, chromePath, jsonPath string, summary bool) {
	if rec == nil {
		return
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := rec.WriteChrome(f); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "trace: wrote %s (open in ui.perfetto.dev)\n", chromePath)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			log.Fatalf("-tracejson: %v", err)
		}
		if err := rec.WriteJSON(f); err != nil {
			log.Fatalf("-tracejson: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "trace: wrote %s\n", jsonPath)
	}
	if summary {
		fmt.Fprint(os.Stderr, rec.Summary())
	}
}

// exportCampaignTraces writes a chaos campaign's per-run traces: the Chrome
// file carries one trace-viewer process per run, so Perfetto shows the
// whole campaign side by side. -tracejson and -obs emit per-run sections.
func exportCampaignTraces(rep *crystalnet.CampaignReport, chromePath, jsonPath string, summary bool) {
	if len(rep.Traces) == 0 {
		return
	}
	if chromePath != "" {
		parts := make([]crystalnet.TracePart, len(rep.Traces))
		for i, r := range rep.Traces {
			parts[i] = crystalnet.TracePart{Name: rep.Runs[i].Scenario, Rec: r}
		}
		f, err := os.Create(chromePath)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if err := crystalnet.WriteChromeTrace(f, parts...); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d runs; open in ui.perfetto.dev)\n", chromePath, len(rep.Traces))
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			log.Fatalf("-tracejson: %v", err)
		}
		for _, r := range rep.Traces {
			if err := r.WriteJSON(f); err != nil {
				log.Fatalf("-tracejson: %v", err)
			}
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "trace: wrote %s (%d runs, concatenated)\n", jsonPath, len(rep.Traces))
	}
	if summary {
		for i, r := range rep.Traces {
			fmt.Fprintf(os.Stderr, "--- %s ---\n%s", rep.Runs[i].Scenario, r.Summary())
		}
	}
}

// defaultChaosBase is the campaign base when no spec file is given: the
// full sdc fabric under the continuous no-blackhole invariant, with one
// convergence point before the fault sequence starts.
func defaultChaosBase() *crystalnet.Scenario {
	return &crystalnet.Scenario{
		Name:        "chaos-sdc",
		Description: "chaos campaign base: sdc fabric, no-blackhole invariant",
		Seed:        1,
		Topology:    scenario.Topology{DC: "sdc", WANPerGroup: 2},
		Invariants:  []crystalnet.ScenarioStep{{Op: scenario.OpAssertNoBlackhole}},
		Steps:       []crystalnet.ScenarioStep{{Op: scenario.OpWaitConverge}},
	}
}

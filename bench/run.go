package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one named set of inputs. The issue's workload x metric matrix
// leaves a cold workload without rehearsal figures and a warm one without a
// mockup time, but the driver that judges later changes with this benchmark
// reads every end-to-end metric from every workload ("with --trace 0 the
// metrics are every end_to_end metric ... choose metrics that are never 0";
// README.md, "The driver's contract"). So every workload runs both paths a
// user sees: a cold mockup in fresh child processes, then warm rehearsals
// against a real crystald. The phase a workload is named for runs at the
// scale that stresses its layers; the other runs on S-DC and fills the
// matrix's empty cells with the control an optimisation aimed elsewhere must
// leave flat.
type workload struct {
	name, why string
	// Cold phase: the fabric mocked up, classic or sharded scheduler.
	coldFabric string
	sharded    bool
	// Warm phase: the fabric rehearsed against, the flow matrix on it, and
	// how the load is warmed up and checked.
	warmFabric   string
	flows        uint64
	warmup       int
	batchCompare int
	// warmNamed says the warm phase is the one the workload is named for:
	// it gets the run's seconds, its process's peak RSS is the one reported,
	// and the probes run on its fabric.
	warmNamed bool
}

var workloads = []workload{
	{
		name: "cold_mdc", why: "whole-fabric M-DC mockup on the default scheduler: rib install, bgp codec/decision/export, sim engine and phynet frame path dominate; serve, checkpoint, batfish and traffic idle",
		coldFabric: "mdc", warmFabric: "sdc", warmup: 4,
	},
	{
		name: "cold_mdc_sharded", why: "same fabric and seed with Shards=GOMAXPROCS: the lockstep ShardSet and parallel.Pool replace the single heap, so a scheduler or barrier change moves only this one",
		coldFabric: "mdc", sharded: true, warmFabric: "sdc", warmup: 4,
	},
	{
		name: "warm_flap_mdc", why: "one ToR uplink flap against a warm M-DC: the perturbation is tiny, so the O(fabric) fork and invariant sweep dominate - the read/copy side of rib and trie",
		coldFabric: "sdc", warmFabric: "mdc", warmup: 4, warmNamed: true,
	},
	{
		name: "warm_traffic_sdc", why: "the same flap on S-DC under a 1M-flow two-class matrix: fork, sweep and convergence are minor, traffic settle and dataplane.ForwardBatch do the work",
		coldFabric: "sdc", warmFabric: "sdc", flows: 1_000_000, warmup: 8, batchCompare: 3, warmNamed: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// smokeSized swaps every M-DC for S-DC and thins the flow matrix, so all
// four workloads' code paths run in seconds. What it measures means nothing.
func (w workload) smokeSized() workload {
	w.coldFabric, w.warmFabric = "sdc", "sdc"
	if w.flows > 0 {
		w.flows = 20_000
	}
	w.warmup = 1
	return w
}

// benchEnv is what every run shares: where things are and how children run.
type benchEnv struct {
	root     string // the checkout: the directory holding BENCHMARK.json
	self     string // this binary, re-executed for child passes
	crystald string
	tmp      string   // scratch for spec and port files, inside the checkout
	outDir   string   // bench/out: ledger documents and traces
	childEnv []string // environment of every measured process
	procs    int      // the GOMAXPROCS children run with
}

// buildDir holds what a run builds and scratches. bench/.gitignore keeps
// bench/out/ untracked, and the leading dot keeps ./... patterns out of it.
const buildDir = "bench/out/.build"

// newEnv locates the checkout, builds cmd/crystald from it and fixes the
// children's environment: GOMAXPROCS=min(nproc,4) stated explicitly, GOGC and
// GOMEMLIMIT left at the Go defaults users run with.
func newEnv() (*benchEnv, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := cwd
	for {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err == nil {
			break
		}
		if parent := filepath.Dir(root); parent != root {
			root = parent
			continue
		}
		return nil, fmt.Errorf("no BENCHMARK.json in %s or above it", cwd)
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	env := &benchEnv{
		root: root, self: self,
		crystald: filepath.Join(root, buildDir, "crystald"),
		outDir:   filepath.Join(root, "bench", "out"),
		procs:    min(runtime.NumCPU(), 4),
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	if env.tmp, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-"); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", env.crystald, "./cmd/crystald")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		env.close()
		return nil, fmt.Errorf("build cmd/crystald: %v\n%s", err, out)
	}
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); k != "GOMAXPROCS" && k != "GOGC" && k != "GOMEMLIMIT" {
			env.childEnv = append(env.childEnv, kv)
		}
	}
	env.childEnv = append(env.childEnv, fmt.Sprintf("GOMAXPROCS=%d", env.procs))
	return env, nil
}

func (e *benchEnv) close() { _ = os.RemoveAll(e.tmp) }

// child re-executes this binary for one pass, hands it job as JSON on stdin
// and decodes its stdout into out. It returns the finished process's state
// for the kernel's accounting of it.
func (e *benchEnv) child(kind string, job, out any) (*os.ProcessState, error) {
	cmd := exec.Command(e.self, "-child", kind)
	cmd.Env = e.childEnv
	cmd.Stdin = bytes.NewReader(mustJSON(job))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %v\n%s", kind, err, stderr.String())
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("%s child: bad output: %w", kind, err)
	}
	return cmd.ProcessState, nil
}

// budget sizes one run. The phase a workload is named for measures for
// `seconds`; the control phase gets a quarter of that, which on S-DC is
// several cold reps or some fifty requests.
type budget struct {
	seconds time.Duration
	// minTimed is the fewest timed requests a warm phase sends however long
	// they take; a cold phase always runs one rep.
	minTimed int
}

// runResult is one untraced run of one workload.
type runResult struct {
	Metrics    map[string]float64 `json:"metrics"`
	LatencyMS  []float64          `json:"latency_ms"`
	Exact      map[string]float64 `json:"exact"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
}

func (r *runResult) violate(format string, args ...any) {
	r.Failed++
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// runWorkload measures one workload once, tracing off: fresh cold children,
// then a real crystald under one closed-loop client.
func runWorkload(env *benchEnv, w workload, seed int64, b budget) (*runResult, error) {
	res := &runResult{Metrics: map[string]float64{}, Exact: map[string]float64{}}
	coldFor, warmFor := b.seconds, b.seconds/4
	if w.warmNamed {
		coldFor, warmFor = warmFor, coldFor
	}

	job := coldJob{Fabric: w.coldFabric, Seed: seed}
	if w.sharded {
		job.Shards = env.procs
	}
	var setupS, wallS, rssMB []float64
	for start := time.Now(); len(wallS) == 0 || time.Since(start) < coldFor; {
		var out coldOut
		job.StartNS = time.Now().UnixNano()
		ps, err := env.child("cold", job, &out)
		if err != nil {
			return nil, err
		}
		res.Attempted += out.Attempted
		for _, v := range out.Violations {
			res.violate("cold rep %d: %s", len(wallS), v)
		}
		// A host-side change must leave what was simulated untouched: the
		// counts of one seed repeat exactly from rep to rep.
		res.Attempted++
		for k, v := range out.Exact {
			if first, seen := res.Exact[k]; seen && first != v {
				res.violate("cold rep %d: %s = %v, rep 0 had %v", len(wallS), k, v, first)
			} else if !seen {
				res.Exact[k] = v
			}
		}
		setupS = append(setupS, out.SetupS)
		wallS = append(wallS, out.MockupWallS)
		rssMB = append(rssMB, maxRSSMB(ps))
	}

	boots := 3 // setup_s takes the median
	if w.warmFabric == "mdc" {
		boots = 1 // each is a whole M-DC mockup
	}
	warm, err := runWarm(env, warmPlan{
		shape: warmShape{Fabric: w.warmFabric, Flows: w.flows, Stream: seed},
		boots: boots, warmup: w.warmup, minTimed: b.minTimed, timedFor: warmFor,
		batchCompare: w.batchCompare,
	})
	if err != nil {
		return nil, err
	}
	res.Attempted += warm.attempted
	for _, v := range warm.violations {
		res.violate("warm: %s", v)
	}
	if len(warm.latencyMS) == 0 {
		return nil, fmt.Errorf("%s: no rehearsal succeeded:\n%s", w.name, strings.Join(res.Violations, "\n"))
	}

	res.LatencyMS = warm.latencyMS
	res.Metrics["setup_s"] = median(setupS) + median(warm.bootS)
	res.Metrics["mockup_wall_s"] = median(wallS)
	res.Metrics["rehearse_p50_ms"] = median(warm.latencyMS)
	res.Metrics["rehearsals_per_s"] = float64(warm.passed) / warm.timedWallS
	res.Metrics["peak_rss_mb"] = median(rssMB)
	if w.warmNamed {
		res.Metrics["peak_rss_mb"] = warm.peakRSSMB
	}
	return res, nil
}

// tracedResult is the traced pass of one workload: per-layer metrics only.
type tracedResult struct {
	Layer      map[string]float64
	ColdExact  map[string]float64 // the traced cold child's counts, to hold against the untraced reps'
	Attempted  int
	Violations []string
}

// runTraced runs one extra rep of each phase in children that wrap every
// call into a layer in a span: the cold mockup, the warm request whole
// (in-process and over HTTP) and the warm request taken apart. The probes run
// in a child of the phase the workload is named for, on that phase's
// converged fabric; where several children report a metric, that phase's
// value stands.
func runTraced(env *benchEnv, w workload, seed int64, smoke bool) (*tracedResult, error) {
	cj := coldJob{Fabric: w.coldFabric, Seed: seed, Trace: true, Probes: !w.warmNamed, Smoke: smoke}
	if w.sharded {
		cj.Shards = env.procs
	}
	cj.StartNS = time.Now().UnixNano()
	var cold coldOut
	if _, err := env.child("cold", cj, &cold); err != nil {
		return nil, err
	}
	rj := replayJob{Shape: warmShape{Fabric: w.warmFabric, Flows: w.flows, Stream: seed}, Requests: 8, Smoke: smoke}
	switch {
	case smoke:
		rj.Requests = 2
	case w.warmFabric == "mdc":
		rj.Requests = 4 // each pass over a request is about a second
	}
	var service, staged replayOut
	if _, err := env.child("replay", rj, &service); err != nil {
		return nil, err
	}
	rj.Staged, rj.Probes = true, w.warmNamed
	if _, err := env.child("replay", rj, &staged); err != nil {
		return nil, err
	}

	// Later layers win: the named phase goes on last, and within the warm
	// phase the service's per-request host cost replaces the staged child's
	// per-mockup one.
	layers := []map[string]float64{staged.Layer, service.Layer, cold.Layer}
	if w.warmNamed {
		layers = []map[string]float64{cold.Layer, staged.Layer, service.Layer}
	}
	res := &tracedResult{
		Layer: map[string]float64{}, ColdExact: cold.Exact,
		Attempted: cold.Attempted + service.Attempted + staged.Attempted,
	}
	for _, layer := range layers {
		for k, v := range layer {
			res.Layer[k] = v
		}
	}
	parts := staged.Layer["core.fork_ms"] + staged.Layer["core.step_converge_ms"] +
		staged.Layer["traffic.settle_ms"] + staged.Layer["batfish.sweep_ms"]
	res.Layer["scenario.run_unattributed_ms"] = service.Layer["trace.run_ms"] - parts
	res.Layer["serve.overhead_ms"] = service.Layer["trace.http_ms"] - service.Layer["trace.run_ms"]
	if events := staged.Layer["sim.step_events"]; w.warmNamed && events > 0 {
		res.Layer["mem.allocs_per_event"] = service.Layer["trace.mallocs_per_op"] / events
	}
	for _, v := range [][]string{cold.Violations, service.Violations, staged.Violations} {
		res.Violations = append(res.Violations, v...)
	}
	if smoke {
		return res, nil // a smoke run records nothing
	}
	trace := map[string][]span{"cold": cold.Spans, "warm": service.Spans, "warm_staged": staged.Spans}
	return res, writeJSONFile(filepath.Join(env.outDir, w.name+".trace.json"), trace)
}

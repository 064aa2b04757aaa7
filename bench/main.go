// Command bench is the repository's benchmark: the two costs a CrystalNet
// user sees - a cold mockup, Prepare to route-ready, and a warm
// /v1/rehearse, request in to report out - measured end to end on real
// processes with tracing off, and layer by layer in a separate traced pass.
// README.md in this directory says what every metric means and which layer
// should move which number.
//
//	go run ./bench -seed 1                     all four workloads -> bench/out/ledger-<time>.json
//	go run ./bench -workload cold_mdc          one workload
//	go run ./bench -diff old.json new.json     regressed / ok / unresolved per metric
//	go run ./bench -selfcheck                  two documents of this code, runs alternating, diffed
//	go run ./bench -smoke                      every code path on S-DC in seconds; records nothing
//
// The driver's form, one run and one JSON line (see BENCHMARK.json):
//
//	bash bench/run.sh --workload cold_mdc --seed 1 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "draws the flapped links and the sampled pairs")
	seconds := fs.Int("seconds", 12, "how long a run measures; at 12 s the three runs of a document give warm_traffic_sdc the 100 requests a p90 needs (the driver passes its own run_seconds)")
	trace := fs.Int("trace", -1, "driver form: 0 prints the end-to-end metrics of one run, 1 the per-layer metrics, as one JSON line")
	doDiff := fs.Bool("diff", false, "compare two ledger documents: -diff old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "measure two documents of this code, their runs alternating, and -diff them")
	smoke := fs.Bool("smoke", false, "run every workload's code paths on S-DC-sized stand-ins; records nothing")
	child := fs.String("child", "", "internal: run one pass (cold, replay) with its job on stdin")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	switch {
	case *child != "":
		if err := runChild(*child, os.Stdin, stdout); err != nil {
			return fatal(err)
		}
		return 0
	case *doDiff:
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-diff wants two documents, old then new"))
		}
		old, err := readLedger(fs.Arg(0))
		if err != nil {
			return fatal(err)
		}
		cur, err := readLedger(fs.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if regressed, _ := diff(old, cur, stdout); regressed > 0 {
			return 1
		}
		return 0
	}

	env, err := newEnv()
	if err != nil {
		return fatal(err)
	}
	defer env.close()
	// Interrupted, the run still leaves nothing behind: the scratch directory
	// goes here and the children go with their parent (Pdeathsig).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		env.close()
		os.Exit(130)
	}()
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return fatal(err)
		}
		selected = []workload{w}
	}
	b := budget{seconds: time.Duration(*seconds) * time.Second, minTimed: 12}

	switch {
	case *trace >= 0:
		if len(selected) != 1 {
			return fatal(fmt.Errorf("-trace wants -workload"))
		}
		if err := driverRun(env, selected[0], *seed, b, *trace == 1, stdout); err != nil {
			return fatal(err)
		}
		return 0
	case *smoke:
		selected = append([]workload(nil), selected...)
		for i := range selected {
			selected[i] = selected[i].smokeSized()
		}
		b = budget{minTimed: 3}
		docs, err := suite(env, selected, *seed, b, 1, 1, true, stderr)
		if err != nil {
			return fatal(err)
		}
		docs[0].print(stdout)
		fmt.Fprintln(stdout, "\nsmoke only: stand-in fabrics, nothing recorded")
		return exitCode(docs[0])
	case *selfcheck:
		// Two documents of the same code, their runs alternating.
		docs, err := suite(env, selected, *seed, b, 2, ledgerSets, false, stderr)
		if err != nil {
			return fatal(err)
		}
		for i, l := range docs {
			if err := l.save(env, fmt.Sprintf("selfcheck%d", i), stdout); err != nil {
				return fatal(err)
			}
		}
		regressed, unresolved := diff(docs[0], docs[1], stdout)
		fmt.Fprintf(stdout, "selfcheck: %d regressed, %d unresolved\n", regressed, unresolved)
		if regressed > 0 {
			return 1
		}
		return max(exitCode(docs[0]), exitCode(docs[1]))
	}

	docs, err := suite(env, selected, *seed, b, 1, ledgerSets, false, stderr)
	if err != nil {
		return fatal(err)
	}
	docs[0].print(stdout)
	if err := docs[0].save(env, "ledger", stdout); err != nil {
		return fatal(err)
	}
	return exitCode(docs[0])
}

// suite measures the selected workloads into docs stamped documents of sets
// untraced runs each (see measure).
func suite(env *benchEnv, selected []workload, seed int64, b budget, docs, sets int, smoke bool, log io.Writer) ([]*ledger, error) {
	out := make([]*ledger, docs)
	for d := range out {
		out[d] = &ledger{Stamp: newStamp(env, seed, int(b.seconds/time.Second)), Workloads: map[string]*workloadEntry{}}
	}
	for _, w := range selected {
		entries, err := measure(env, w, seed, b, docs, sets, smoke, log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		for d, e := range entries {
			out[d].Workloads[w.name] = e
		}
	}
	return out, nil
}

func (l *ledger) save(env *benchEnv, kind string, out io.Writer) error {
	path := filepath.Join(env.outDir, kind+"-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	if err := writeJSONFile(path, l); err != nil {
		return err
	}
	fmt.Fprintln(out, "wrote", path)
	return nil
}

// exitCode is non-zero when any output check failed.
func exitCode(l *ledger) int {
	for _, e := range l.Workloads {
		if e.Failed > 0 {
			return 1
		}
	}
	return 0
}

// driverRun is one run in the driver's form: the last line of standard
// output is one JSON object with the run's verdict and metrics.
func driverRun(env *benchEnv, w workload, seed int64, b budget, traced bool, stdout io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	var violations []string
	if traced {
		t, err := runTraced(env, w, seed, false)
		if err != nil {
			return err
		}
		result.Attempted, result.Failed, violations = t.Attempted, len(t.Violations), t.Violations
		for _, def := range perLayer {
			result.Metrics[def.Name] = value{t.Layer[def.Name], def.Unit}
		}
	} else {
		r, err := runWorkload(env, w, seed, b)
		if err != nil {
			return err
		}
		result.Attempted, result.Failed, violations = r.Attempted, r.Failed, r.Violations
		for _, def := range endToEnd {
			if def.DriverBound > 0 {
				result.Metrics[def.Name] = value{r.Metrics[def.Name], def.Unit}
			}
		}
	}
	for _, v := range violations {
		fmt.Fprintln(stdout, "VIOLATION", v)
	}
	result.Correct = result.Failed == 0
	result.Failed = min(result.Failed, result.Attempted)
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// runChild is the other side of benchEnv.child.
func runChild(kind string, stdin io.Reader, stdout io.Writer) error {
	dec := json.NewDecoder(stdin)
	var out any
	var err error
	switch kind {
	case "cold":
		var job coldJob
		if err = dec.Decode(&job); err == nil {
			out, err = runCold(job)
		}
	case "replay":
		var job replayJob
		if err = dec.Decode(&job); err == nil {
			out, err = runReplay(job)
		}
	default:
		err = fmt.Errorf("unknown child %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

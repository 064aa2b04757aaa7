package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crystalnet/internal/scenario"
	"crystalnet/internal/serve"
)

// daemon is one real crystald process, warmed from a spec file and
// listening on an ephemeral loopback port.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    bytes.Buffer
	exited chan error
	// boot is exec → portfile written: the baseline is converged and
	// checkpointed and the listener is up.
	boot time.Duration
}

const (
	bootTimeout  = 150 * time.Second
	drainTimeout = 20 * time.Second
)

func startDaemon(env *benchEnv, specPath string) (*daemon, error) {
	portFile := filepath.Join(env.tmp, "crystald.port")
	if err := os.Remove(portFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	d := &daemon{exited: make(chan error, 1)}
	d.cmd = exec.Command(env.crystald, "-addr", "127.0.0.1:0", "-portfile", portFile,
		"-warm", specPath, "-norewarm")
	d.cmd.Env = env.childEnv
	d.cmd.Stderr = &d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	for {
		if b, err := os.ReadFile(portFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.boot = time.Since(start)
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("crystald exited during warm-up: %v\n%s", err, d.log.String())
		default:
		}
		if time.Since(start) > bootTimeout {
			d.kill()
			return nil, fmt.Errorf("crystald not ready after %s\n%s", bootTimeout, d.log.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

// stop drains the daemon with SIGTERM, as an operator would, waits for it to
// end and returns its peak resident set. A daemon that does not drain is
// killed and reported.
func (d *daemon) stop() (peakRSSMB float64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal crystald: %w", err)
	}
	select {
	case werr := <-d.exited:
		if werr != nil {
			return 0, fmt.Errorf("crystald did not drain cleanly: %v\n%s", werr, d.log.String())
		}
	case <-time.After(drainTimeout):
		d.kill()
		return 0, fmt.Errorf("crystald still running %s after SIGTERM", drainTimeout)
	}
	return maxRSSMB(d.cmd.ProcessState), nil
}

// maxRSSMB reads ru_maxrss (KiB on Linux) from a finished process.
func maxRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// client is the load generator's one connection to the daemon.
type client struct {
	http *http.Client
	url  string
}

func newClient(addr string) *client {
	return &client{
		http: &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:  "http://" + addr + "/v1/rehearse",
	}
}

type response struct {
	body    []byte
	pool    string
	latency time.Duration // request bytes written → report bytes read
	err     error
}

// rehearse posts one spec and checks what a caller would: HTTP 200 and a
// report that passed. The pool header is returned for the caller to judge.
func (c *client) rehearse(spec []byte) response {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(spec))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return response{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	latency := time.Since(start)
	resp.Body.Close()
	r := response{body: body, pool: resp.Header.Get(serve.PoolHeader), latency: latency, err: err}
	if r.err != nil {
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(body)))
		return r
	}
	var rep struct {
		Passed bool `json:"passed"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		r.err = fmt.Errorf("report is not JSON: %w", err)
	} else if !rep.Passed {
		r.err = fmt.Errorf("report did not pass")
	}
	return r
}

// warmPlan sizes one warm phase.
type warmPlan struct {
	shape  warmShape
	boots  int // crystald is booted this many times; the last one takes the load
	warmup int
	// The timed phase ends once it has both sent minTimed requests and
	// lasted timedFor.
	minTimed int
	timedFor time.Duration
	// batchCompare requests are re-run after the timed phase as fresh batch
	// scenario.Run calls and byte-compared with what the daemon returned.
	batchCompare int
}

type warmResult struct {
	bootS      []float64
	latencyMS  []float64
	timedWallS float64
	passed     int
	peakRSSMB  float64
	attempted  int
	violations []string
}

// runWarm boots crystald on the shape's baseline and drives it with one
// closed-loop client over loopback: the next request is sent only when the
// previous report has been read.
func runWarm(env *benchEnv, p warmPlan) (*warmResult, error) {
	gen, err := newFlapGen(p.shape)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(env.tmp, "warm.json")
	if err := os.WriteFile(specPath, gen.warmSpec(), 0o644); err != nil {
		return nil, err
	}
	res := &warmResult{}
	fail := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}

	var d *daemon
	for i := 0; i < max(p.boots, 1); i++ {
		if d != nil {
			// Only its boot time was wanted. Killed, not drained: crystald
			// writes its portfile before it installs the SIGTERM handler,
			// so a drain this early can land in between.
			d.kill()
		}
		if d, err = startDaemon(env, specPath); err != nil {
			return nil, err
		}
		res.bootS = append(res.bootS, d.boot.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	stop := func() (float64, error) {
		stopped = true // stop reaps the process on every path
		return d.stop()
	}
	c := newClient(d.addr)

	// send fires one request and applies the per-request checks.
	send := func(what string, spec []byte) (response, bool) {
		res.attempted++
		r := c.rehearse(spec)
		switch {
		case r.err != nil:
			fail("%s: %v", what, r.err)
		case r.pool != "hit":
			fail("%s: X-Crystalnet-Pool %q, want hit", what, r.pool)
		default:
			return r, true
		}
		return r, false
	}

	for i := 0; i < p.warmup; i++ {
		send(fmt.Sprintf("warm-up %d", i), gen.next())
	}
	type sent struct{ spec, body []byte }
	var kept []sent // request #0 and the ones to batch-compare
	start := time.Now()
	for n := 0; n < p.minTimed || time.Since(start) < p.timedFor; n++ {
		spec := gen.next()
		r, ok := send(fmt.Sprintf("request %d", n), spec)
		if !ok {
			continue
		}
		res.passed++
		res.latencyMS = append(res.latencyMS, ms(r.latency))
		if len(kept) < max(p.batchCompare, 1) {
			kept = append(kept, sent{spec, r.body})
		}
	}
	res.timedWallS = time.Since(start).Seconds()

	if len(kept) > 0 {
		// The same bytes in must give the same bytes out, whatever the
		// daemon served in between.
		if r, ok := send("request 0 again", kept[0].spec); ok && !bytes.Equal(r.body, kept[0].body) {
			fail("request 0 again: report differs from its first answer")
		}
	}
	if res.peakRSSMB, err = stop(); err != nil {
		return nil, err
	}

	for i := 0; i < p.batchCompare && i < len(kept); i++ {
		res.attempted++
		sp, err := scenario.Parse(kept[i].spec)
		if err != nil {
			return nil, err
		}
		rep, err := scenario.Run(sp, scenario.Options{})
		if err != nil {
			fail("batch run %d: %v", i, err)
		} else if !bytes.Equal(rep.JSON(), kept[i].body) {
			fail("request %d: daemon report differs from a fresh batch run of the same spec", i)
		}
	}
	return res, nil
}

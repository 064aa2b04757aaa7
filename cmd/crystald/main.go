// Command crystald is the rehearsal-as-a-service daemon: it keeps a warm
// pool of converged, checkpointed base fabrics and serves concurrent
// rehearsal and chaos requests over HTTP by forking a pooled checkpoint
// per request. A served report is byte-identical to what the batch
// `crystalctl run-scenario` / `crystalctl chaos` commands print for the
// same spec — the warm pool only removes convergence latency, never
// changes results.
//
// Usage:
//
//	crystald [flags]
//
// Endpoints (docs/API.md):
//
//	POST /v1/rehearse        run one scenario spec, return its JSON report
//	POST /v1/chaos           run a chaos campaign against a base spec
//	GET  /v1/status          sessions, quotas and warm-pool state
//	POST /v1/pool/invalidate retire warm baselines (re-warm in background)
//	GET  /healthz            liveness (503 while draining)
//	GET  /metrics            Prometheus text metrics
//
// SIGTERM/SIGINT drains gracefully: new work is refused with 503 while
// in-flight sessions finish (bounded by -draintimeout), then the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crystalnet"
)

// Connection timeouts. They bound how long a client may hold a connection
// without sending: a request's headers, then its whole body (at most 4 MB,
// see serve), then the quiet between keep-alive requests. There is
// deliberately no write timeout — a rehearsal's report is written when its
// emulation finishes, which on a cold M-DC pool miss is minutes after the
// request was read.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crystald: ")
	addr := flag.String("addr", "127.0.0.1:9310", "listen address (use :0 for an ephemeral port)")
	pool := flag.Int("pool", 4, "warm checkpoint pool capacity")
	maxInFlight := flag.Int("maxinflight", 16, "max concurrent sessions across all tenants (-1 = unlimited)")
	tenantInFlight := flag.Int("tenantinflight", 4, "max concurrent sessions per tenant (-1 = unlimited)")
	maxEvents := flag.Uint64("maxevents", 0, "cap each convergence drive (0 = default)")
	warm := flag.String("warm", "", "pre-converge a baseline from this spec `file` at boot")
	portFile := flag.String("portfile", "", "write the bound address to `file` once listening")
	noRewarm := flag.Bool("norewarm", false, "do not re-converge invalidated pool entries in the background")
	drainTimeout := flag.Duration("draintimeout", 2*time.Minute, "max time to wait for in-flight sessions on shutdown")
	flag.Parse()

	srv := crystalnet.NewRehearsalServer(crystalnet.ServeConfig{
		PoolSize:       *pool,
		MaxInFlight:    *maxInFlight,
		TenantInFlight: *tenantInFlight,
		MaxEvents:      *maxEvents,
		NoRewarm:       *noRewarm,
	})

	if *warm != "" {
		sp, err := crystalnet.LoadScenario(*warm)
		if err != nil {
			log.Fatalf("-warm: %v", err)
		}
		log.Printf("warming pool from %s (%s)...", *warm, sp.Name)
		start := time.Now()
		if err := srv.Warm(sp); err != nil {
			log.Fatalf("-warm: %v", err)
		}
		log.Printf("warm baseline ready in %s", time.Since(start).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("-portfile: %v", err)
		}
	}
	log.Printf("listening on %s (pool %d, maxinflight %d, tenantinflight %d)",
		bound, *pool, *maxInFlight, *tenantInFlight)

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (refusing new work, finishing in-flight sessions)...", sig)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v (forcing exit)", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "crystald: drained cleanly")
}

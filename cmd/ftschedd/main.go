// Command ftschedd serves the deterministic scheduling, certification, and
// simulation engines over HTTP/JSON — scheduling as a service.
//
//	ftschedd -addr 127.0.0.1:8080 -workers 8
//
// Endpoints:
//
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 Prometheus text format (internal/obs counters)
//	POST /v1/schedule[?format=cli]
//	POST /v1/certify
//	POST /v1/simulate
//	POST /v1/{schedule,certify,simulate}/batch
//
// With ?format=cli the schedule response body is byte-identical to what
// `ftsched -format json` prints for the same inputs. On SIGINT/SIGTERM the
// daemon flips /healthz to 503 and drains in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ftsched/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ftschedd:", err)
		os.Exit(1)
	}
}

// run boots the daemon. A non-nil ready channel receives the bound address
// once the listener is up (used by tests).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("ftschedd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address; port 0 picks a free port")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		workers      = fs.Int("workers", 0, "global engine-worker budget shared by all requests; 0 uses GOMAXPROCS")
		cacheEntries = fs.Int("cache", 0, "response cache capacity in outcomes; 0 uses 4096, negative disables")
		timeout      = fs.Duration("timeout", 0, "default per-request timeout, queue wait included; 0 uses 60s, negative disables")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on shutdown")
		maxBody      = fs.Int64("max-body", 0, "request body cap in bytes; 0 uses 16 MiB")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Catch SIGTERM before announcing the address: a caller that signals
	// as soon as it learns the address must get a drain, not the default
	// kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write addr-file: %w", err)
		}
	}
	fmt.Fprintf(out, "ftschedd: listening on %s\n", bound)
	if ready != nil {
		ready <- bound
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-sigc:
		fmt.Fprintf(out, "ftschedd: %v, draining\n", sig)
	}

	// Graceful drain: advertise unreadiness first so load balancers stop
	// sending traffic, then let in-flight requests finish.
	srv.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(out, "ftschedd: drained")
	return nil
}

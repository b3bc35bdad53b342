// Command fx8d is the measurement daemon: it serves the study's
// campaign artefacts — studies, tables, figures, sweeps — over HTTP,
// backed by the two-tier campaign cache.  Campaigns run on the
// session-execution engine's worker pool; identical concurrent
// requests share one run, and with -cache the completed campaign is
// persisted so later processes (daemon or CLI) restore it from disk.
//
// Usage:
//
//	fx8d [-addr HOST:PORT] [-cache DIR] [-workers N] [-max-inflight N]
//	     [-max-queue N] [-cache-max-bytes N] [-debug-addr HOST:PORT]
//	     [-access-log] [-join URL] [-advertise ADDR] [-heartbeat DUR]
//
// -debug-addr starts a second listener serving net/http/pprof
// (/debug/pprof/) — profiling stays off the service port and off by
// default.  -access-log emits one structured log line per request to
// stderr, carrying the request ID that GET /v1/trace/{id} keys on.
//
// Every daemon embeds a fleet campaign coordinator behind the
// /v1/jobs API; with -cache it resumes interrupted jobs at boot.
// -join URL registers this daemon as a work backend with another
// daemon's coordinator, re-registering every -heartbeat until
// shutdown, so the fleet's membership follows the live processes.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests.  See internal/service for the endpoint list.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/coord"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	cli.Main(func(args []string, stdout io.Writer) error {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return run(ctx, args, stdout)
	})
}

// drainTimeout bounds graceful shutdown: in-flight requests get this
// long to finish once the stop signal arrives.
const drainTimeout = 10 * time.Second

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fx8d", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8087", "listen address")
	cacheDir := fs.String("cache", "", "campaign store directory (persists campaigns across restarts; shared with the CLI tools)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "evict oldest store entries beyond this total size (0 = unbounded)")
	workers := fs.Int("workers", 0, "parallel session workers per campaign (0 = one per CPU)")
	inflight := fs.Int("max-inflight", 4, "concurrently admitted expensive requests")
	maxQueue := fs.Int("max-queue", 0, "expensive requests allowed to wait for admission before 429s (0 = 4x max-inflight)")
	debugAddr := fs.String("debug-addr", "", "listen address for the pprof debug server (empty = disabled)")
	accessLog := fs.Bool("access-log", false, "log one structured line per request to stderr")
	join := fs.String("join", "", "coordinator URL to register with as a fleet backend (empty = standalone)")
	advertise := fs.String("advertise", "", "address to advertise to the coordinator (default: the listen address)")
	heartbeat := fs.Duration("heartbeat", coord.DefaultTTL/3, "re-registration cadence while joined to a coordinator")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *inflight < 1 {
		return fmt.Errorf("-max-inflight must be >= 1, got %d", *inflight)
	}
	if *maxQueue < 0 {
		return fmt.Errorf("-max-queue must be >= 0, got %d", *maxQueue)
	}

	var st *store.Store
	if *cacheDir != "" {
		var err error
		if st, err = store.Open(*cacheDir, store.WithMaxBytes(*cacheMax)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign store: %s\n", st.Dir())
	}

	cfg := service.Config{
		Store:       st,
		Workers:     *workers,
		MaxInFlight: *inflight,
		MaxQueue:    *maxQueue,
	}
	if *accessLog {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := service.New(cfg)
	defer srv.Close()

	// A persistent store may hold jobs a previous daemon left in state
	// running (crash, kill -9, graceful stop mid-campaign); restart
	// them — completed units replay from the unit cache, so resume
	// costs only what the dead daemon had not finished.
	if n := srv.Coordinator().ResumeInterrupted(); n > 0 {
		fmt.Fprintf(stdout, "resumed %d interrupted job(s)\n", n)
	}

	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux; serving it from a
		// second listener keeps profiling endpoints off the service
		// port entirely.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		go http.Serve(dln, http.DefaultServeMux) //nolint:errcheck // dies with the process
		fmt.Fprintf(stdout, "fx8d debug (pprof) on %s\n", dln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	fmt.Fprintf(stdout, "fx8d listening on %s\n", ln.Addr())

	// Fleet membership: announce this daemon to a coordinator and keep
	// the registration alive until shutdown.  The coordinator will
	// then dispatch campaign units here via POST /v1/run/*.
	if *join != "" {
		workerAddr := *advertise
		if workerAddr == "" {
			workerAddr = ln.Addr().String()
		}
		fmt.Fprintf(stdout, "joining fleet at %s as %s\n", *join, workerAddr)
		go coord.HeartbeatLoop(ctx, nil, *join, workerAddr, *heartbeat)
	}

	// Graceful shutdown: when the signal context fires, stop
	// accepting, drain in-flight requests, then let Serve return.
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		shutdownErr <- hs.Shutdown(drainCtx)
	}()

	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	fmt.Fprintln(stdout, "fx8d stopped")
	return nil
}

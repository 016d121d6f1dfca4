// Command fppnd is the FPPN serving daemon: a long-running HTTP service
// that compiles models once and answers compile, simulate and analyze
// requests from a content-addressed plan cache (internal/serve).
//
// Usage:
//
//	fppnd [-addr :7337] [-cache-budget-mb 256] [-max-m 64]
//	      [-max-frames 4096] [-max-analyze-jobs 4096] [-drain-timeout 10s]
//
// Endpoints:
//
//	POST /compile     {"app":"fms","m":2,"heuristic":"alap-edf"}
//	POST /simulate    {"app":"fms","frames":4,"events":{"AnemoConfig":["0.04"]}}
//	POST /analyze     {"app":"fms","m":2}
//	GET  /healthz
//	GET  /metrics
//	GET  /debug/vars  (expvar, includes the same stats under "fppnd")
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight requests for up to -drain-timeout before exiting. Exit
// status: 0 on clean shutdown, 1 on startup or serve errors, 2 on
// invalid usage.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":7337", "listen address")
	budgetMB := flag.Int64("cache-budget-mb", 256, "plan cache cost budget in MiB")
	maxM := flag.Int("max-m", 64, "largest processor count a request may ask for")
	maxFrames := flag.Int("max-frames", 4096, "largest frame count one /simulate may ask for")
	maxAnalyze := flag.Int("max-analyze-jobs", 4096, "job gate for the expensive /analyze passes")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	flag.Parse()

	if err := run(*addr, *budgetMB, *maxM, *maxFrames, *maxAnalyze, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "fppnd:", err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(addr string, budgetMB int64, maxM, maxFrames, maxAnalyze int, drain time.Duration) error {
	if budgetMB < 1 {
		return cli.Usagef("cache budget %d MiB; want >= 1", budgetMB)
	}
	if maxM < 1 || maxFrames < 1 {
		return cli.Usagef("-max-m and -max-frames must be >= 1")
	}
	s := serve.NewServer(serve.Options{
		CacheBudget:    budgetMB << 20,
		MaxProcessors:  maxM,
		MaxFrames:      maxFrames,
		MaxAnalyzeJobs: maxAnalyze,
	})

	// Publish the daemon stats into the process-wide expvar tree; the
	// serve package itself never touches expvar so tests can build many
	// servers without duplicate-name panics.
	expvar.Publish("fppnd", expvar.Func(func() any { return s.Stats() }))
	mux := http.NewServeMux()
	mux.Handle("/", s)
	mux.Handle("GET /debug/vars", expvar.Handler())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("fppnd: listening on %s (models: %v)", ln.Addr(), cli.ModelNames())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("fppnd: shutdown signal received; draining for up to %v", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	stats := s.Stats()
	log.Printf("fppnd: drained cleanly after %d requests (%d hits, %d misses, %d coalesced)",
		stats.Requests, stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Coalesced)
	return nil
}

// Command humnetd serves the experiment registry over HTTP/JSON — the
// repository's scenario platform as a daemon. Every registered scenario
// (E1–E22 plus the auxiliary studies) is runnable via
//
//	GET /run?id=E7&seed=9&<param>=<value>...
//
// (the query is read by experiment.Registry.ParseJob, the parser
// `reportgen -run` shares, so both front ends run the same job for it)
// with /list (registry + schemas), /healthz, and /metrics (counters, cache
// tier hit ratios, latency histogram) alongside. The warm path is layered:
// an in-memory LRU of rendered responses, request coalescing (concurrent
// identical requests share one execution), and the content-addressed disk
// cache; a bounded admission queue sheds overload with 429/503 +
// Retry-After instead of collapsing. Responses are byte-identical for equal
// (id, params, seed) across tiers and restarts — see cmd/humnetload for the
// load generator that asserts exactly that.
//
// Usage:
//
//	humnetd [-addr 127.0.0.1:8080] [-addr-file PATH] [-cache-dir DIR]
//	        [-lru 4096] [-lru-bytes 67108864] [-max-inflight 0]
//	        [-max-queue 1024] [-queue-timeout 2s] [-retry-after 1s]
//	        [-workers 0]
//
// -addr-file writes the bound address after listening starts, so scripts
// can use "-addr 127.0.0.1:0" and discover the ephemeral port. SIGINT and
// SIGTERM drain in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiment"
	_ "repro/internal/experiment/all"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("humnetd: ")
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole daemon behind a single error-propagating exit path.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("humnetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 with -addr-file for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	cacheDir := fs.String("cache-dir", "", "content-addressed disk cache directory (empty = memory only)")
	lruSize := fs.Int("lru", 4096, "in-memory response LRU capacity in entries (<= 0 disables)")
	lruBytes := fs.Int64("lru-bytes", 64<<20, "in-memory response LRU byte budget; larger responses are served uncached (<= 0 = no byte bound)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing /run requests (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 1024, "max requests waiting for an execution slot before shedding 429")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "max wait for an execution slot before shedding 503")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	workers := fs.Int("workers", 0, "per-scenario sweep workers (0 = GOMAXPROCS); output is identical for any value")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := serve.Config{
		LRUSize:         *lruSize,
		LRUBytes:        *lruBytes,
		MaxInFlight:     *maxInflight,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTimeout,
		RetryAfter:      *retryAfter,
		ScenarioWorkers: *workers,
		Now:             time.Now,
	}
	if *cacheDir != "" {
		cache, err := experiment.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = cache
	}
	srv := serve.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, bound); err != nil {
			_ = ln.Close()
			return err
		}
	}
	if _, err := fmt.Fprintf(stderr, "listening on %s (%d scenarios, cache %q)\n",
		bound, len(experiment.All()), *cacheDir); err != nil {
		_ = ln.Close()
		return err
	}

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stderr, "drained, bye")
		return err
	}
}

// writeAddrFile publishes the bound address atomically (temp + rename), so
// a polling script never reads a half-written file.
func writeAddrFile(path, addr string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "addr-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.WriteString(addr + "\n")
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Command partreed serves the partree tree-construction engines over a
// JSON HTTP API. Concurrent small requests are coalesced into batches
// that run as one data-parallel PRAM pass per engine, rendered responses
// are cached under raw-body and canonical request hashes, and overload
// is shed with 429s so the service stays responsive.
//
// Endpoints:
//
//	POST /v1/huffman             {"weights":[...]}
//	POST /v1/shannonfano         {"weights":[...]}
//	POST /v1/treefromdepths      {"depths":[...]}
//	POST /v1/obst                {"keys":[...],"gaps":[...]}
//	POST /v1/lincfl/recognize    {"grammar":"palindrome","word":"..."}
//	GET  /healthz                liveness + uptime
//	GET  /statsz                 cache/batcher counters and PRAM phase stats
//	GET  /metricsz               the same counters in Prometheus text format,
//	                             plus trace-derived phase/batch histograms
//	GET  /debug/pprof/...        Go profiling endpoints (only with -pprof)
//
// Any /v1 request sent with an "X-Partree-Trace: 1" header is traced:
// the response nests the result beside the span timings (request, batch,
// and PRAM phase spans) and echoes a trace ID in X-Partree-Trace-Id.
//
// Example:
//
//	partreed -addr :8080 -max-batch 64 -linger 200us &
//	curl -s localhost:8080/v1/huffman -d '{"weights":[5,2,1,1]}'
//	curl -s -H 'X-Partree-Trace: 1' localhost:8080/v1/huffman -d '{"weights":[5,2,1,1]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partree/internal/pool"
	"partree/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("partreed", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "PRAM worker goroutines per batch run and workspace-arena shard count; 0 = GOMAXPROCS, 1 runs single-shard (no sharding overhead)")
		maxBatch   = fs.Int("max-batch", 64, "max jobs coalesced into one engine batch")
		linger     = fs.Duration("linger", 200*time.Microsecond, "how long an open batch waits for more jobs")
		cacheSize  = fs.Int("cache-size", 4096, "response cache size: holds up to 2× this many rendered bodies, raw-body and canonical keys together (negative disables caching)")
		inflight   = fs.Int("max-inflight", 256, "concurrent requests admitted before shedding with 429")
		reqTimeout = fs.Duration("request-timeout", 10*time.Second, "per-request deadline")
		traceCap   = fs.Int("trace-capacity", 512, "spans kept per X-Partree-Trace request trace")
		shardID    = fs.String("shard-id", "", "name of this backend within a partreegw cluster (echoed in /healthz and /statsz)")
		pprofOn    = fs.Bool("pprof", false, "mount Go profiling handlers under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "partreed: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	logger := log.New(os.Stderr, "partreed: ", log.LstdFlags)

	// Size the workspace arena: an explicit -workers wins (a -workers 1
	// deployment collapses the arena to one shard so its slab traffic
	// pays no sharding overhead); otherwise the arena keeps its
	// GOMAXPROCS default.
	if *workers > 0 {
		pool.SetShards(*workers)
	}
	s := serve.New(serve.Config{
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		Linger:         *linger,
		CacheSize:      *cacheSize,
		MaxInflight:    *inflight,
		RequestTimeout: *reqTimeout,
		TraceCapacity:  *traceCap,
		ShardID:        *shardID,
		Logf:           logger.Printf,
	})

	// The pprof handlers hang off an outer mux so the service mux (and its
	// panic recovery / admission path) stays unaware of them; without
	// -pprof no profiling surface exists at all.
	handler := s.Handler()
	if *pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	logger.Printf("listening on %s (max-batch=%d linger=%v cache=%d inflight=%d request-timeout=%v pprof=%v)",
		*addr, *maxBatch, *linger, *cacheSize, *inflight, *reqTimeout, *pprofOn)

	select {
	case err := <-errc:
		// Listen failed before any signal.
		logger.Printf("serve error: %v", err)
		s.Close()
		return 1
	case sig := <-sigc:
		logger.Printf("received %v; draining", sig)
	}

	// Flip /healthz to 503 first so health-checked routers (partreegw)
	// stop sending new traffic, then stop accepting connections, let
	// in-flight requests finish, and drain the batchers so every admitted
	// job completes.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	s.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve error: %v", err)
		return 1
	}
	logger.Printf("drained; bye")
	return 0
}

// Command cclserve is the simulation server: a long-running HTTP
// daemon that accepts workload specs and uploaded binary traces, runs
// them as jobs on a sharded fleet of per-tenant run contexts, and
// streams progress and results as NDJSON (internal/serve).
//
// Usage:
//
//	cclserve [-addr host:port] [-shards n] [-workers n] [-queue n]
//	         [-degrade-at n] [-deadline d] [-drain-timeout d]
//	         [-rate r] [-burst n] [-max-active n] [-budget bytes]
//	cclserve -selftest [-tenants n] [-concurrent n]
//
// Endpoints:
//
//	POST /v1/jobs        submit a ccl-serve/v1 JSON spec, stream NDJSON
//	POST /v1/replay      submit a raw binary trace (octet-stream)
//	GET  /v1/experiments list runnable experiment ids
//	GET  /healthz        liveness + load
//
// Robustness is the point: per-tenant admission control (token bucket
// + bounded queue) rejects overload with typed 429/503s, every
// request carries a deadline and a simulated-memory budget, each
// request runs once and reports its failures as typed records (runs
// are deterministic, so a retry would fail the same way), sustained
// overload degrades to reduced-sweep "smoke" runs flagged in the
// result, a panic kills only its own request, and SIGTERM/SIGINT
// drains: admission stops (503), in-flight requests finish, and if
// -drain-timeout expires first they are cancelled, each flushing a
// partial, interrupted result. A second signal force-exits. Identical
// specs produce a byte-identical result at any concurrency.
//
// -selftest runs the load-test driver in-process (8 tenants x 32
// concurrent requests under a fault schedule arming every serve-*
// point, every completed result diffed byte-for-byte against a serial
// reference run, then a drain under load) and exits 0 only if every
// check holds — the same driver the repo's tests run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"ccl/internal/drain"
	"ccl/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8344", "listen address")
	shards := flag.Int("shards", 4, "worker shards (a tenant maps to one)")
	workers := flag.Int("workers", 2, "workers per shard")
	queue := flag.Int("queue", 8, "queued requests per shard beyond the workers")
	degradeAt := flag.Int("degrade-at", 12, "admitted-request count beyond which new requests degrade to smoke runs; 0 disables")
	deadline := flag.Duration("deadline", 30*time.Second, "default per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits before cancelling in-flight requests")
	rate := flag.Float64("rate", 10, "per-tenant admitted requests per second; 0 disables rate limiting")
	burst := flag.Int("burst", 8, "per-tenant token-bucket burst")
	maxActive := flag.Int("max-active", 8, "per-tenant admitted-but-unfinished request bound")
	budget := flag.Int64("budget", 0, "default per-request simulated-memory budget in bytes; 0 means unbudgeted")
	selftest := flag.Bool("selftest", false, "run the load-test driver and exit")
	tenants := flag.Int("tenants", 8, "selftest: concurrent tenants")
	concurrent := flag.Int("concurrent", 32, "selftest: concurrent requests per tenant")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "cclserve: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *selftest {
		os.Exit(runSelftest(*tenants, *concurrent))
	}

	cfg := serve.Config{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		DegradeAt:       *degradeAt,
		DefaultDeadline: *deadline,
		DefaultTenant: serve.TenantConfig{
			RatePerSec:  *rate,
			Burst:       *burst,
			MaxActive:   *maxActive,
			BudgetBytes: *budget,
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cclserve: "+format+"\n", args...)
		},
	}
	srv := serve.New(cfg)

	// First SIGTERM/SIGINT starts the drain; a second force-exits, so
	// a hung request can never hold the shutdown hostage.
	ctx, stop := drain.Context(context.Background(), func() {
		fmt.Fprintln(os.Stderr, "cclserve: second signal, exiting without drain")
		os.Exit(130)
	}, os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Request contexts descend from the serve.Server's base
		// context, so a drain-timeout hard-cancel reaches every
		// in-flight run.
		BaseContext: func(net.Listener) context.Context { return srv.BaseContext() },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cclserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cclserve: listening on http://%s (drain with SIGTERM)\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "cclserve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: stop admitting immediately (new submissions get typed
	// 503s while in-flight streams finish), then bound the wait.
	fmt.Fprintf(os.Stderr, "cclserve: draining (timeout %v)\n", *drainTimeout)
	srv.BeginDrain()
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	derr := srv.Drain(dctx)
	// Close the listener last: the drain owns request lifetimes; the
	// HTTP server just needs to let the final bytes flush.
	hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "cclserve: shutdown: %v\n", err)
	}
	if derr != nil {
		fmt.Fprintf(os.Stderr, "cclserve: %v\n", derr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "cclserve: drained clean")
}

// runSelftest drives the in-process load test and prints its summary.
func runSelftest(tenants, concurrent int) int {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := serve.LoadTest(ctx, serve.LoadTestConfig{
		Tenants:       tenants,
		Concurrent:    concurrent,
		DrainAfter:    20 * time.Millisecond,
		DrainDeadline: 10 * time.Second,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cclserve: selftest: %v\n", err)
		return 1
	}
	b, _ := json.MarshalIndent(res, "", "  ")
	fmt.Printf("%s\n", b)
	if err := res.Failed(); err != nil {
		fmt.Fprintf(os.Stderr, "cclserve: selftest FAILED: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "cclserve: selftest passed")
	return 0
}

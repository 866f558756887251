// Command clara-serve runs Clara as a long-lived prediction service: an
// HTTP API over the analysis pipeline with compiled-NF and result caching,
// singleflight deduplication, per-request budget/timeout ceilings and
// Prometheus metrics:
//
//	clara-serve -addr :8080 -nfdir examples
//	curl -s localhost:8080/v1/nfs
//	curl -s -X POST localhost:8080/v1/advise \
//	  -d '{"nf":"firewall","workload":"flows=10000,rate=60000,size=300"}'
//
// Endpoints: POST /v1/advise, /v1/predict, /v1/partial, /v1/measure (JSON
// bodies, see README "clara-serve"), POST/GET /v1/jobs for asynchronous
// submissions with retries, GET /v1/nfs, /metrics, /healthz and /readyz.
// /v1/measure runs the cycle-level simulator on a generated in-memory
// trace, as one window (the classic loop). Every computation, sync or
// async, is admitted by one job engine whose -max-inflight workers run it;
// per-endpoint circuit breakers and queue/latency load shedding answer
// 503 + Retry-After under overload. SIGINT/SIGTERM triggers a graceful
// drain: queued jobs cancel, in-flight analyses finish (up to
// -drain-timeout), then the listener closes; /readyz reports not-ready for
// the duration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clara/internal/budget"
	"clara/internal/cliutil"
	"clara/internal/jobs"
	"clara/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clara-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		nfdir       = flag.String("nfdir", "", "directory of *.nf files served as the named-NF library")
		maxTimeout  = flag.Duration("max-timeout", 30*time.Second, "per-request wall-clock ceiling; client timeouts are clamped to this")
		maxBudget   = flag.String("max-budget", "", "per-request resource ceiling, same syntax as -budget: "+cliutil.BudgetFlagDoc)
		parallel    = flag.Int("parallel", 0, "worker-pool width inside each analysis (default GOMAXPROCS)")
		maxInflight = flag.Int("max-inflight", 0, "workers running analyses, synchronous and /v1/jobs alike; excess computations queue (default 2x GOMAXPROCS)")
		nfCache     = flag.Int("nf-cache", 128, "compiled-NF LRU capacity")
		resultCache = flag.Int("result-cache", 1024, "result LRU capacity")
		drain       = flag.Duration("drain-timeout", 15*time.Second, "how long a shutdown waits for in-flight analyses before aborting them")
		jobQueue    = flag.Int("job-queue", 256, "computations (sync misses and async jobs) admitted but unfinished before 503")
		jobRetries  = flag.Int("job-retries", 3, "attempts per async job before a transient failure becomes permanent")
		jobTTL      = flag.Duration("job-ttl", 15*time.Minute, "how long finished async jobs stay pollable (queued jobs older than this expire unrun)")
		shedQueue   = flag.Int("shed-queue", 0, "dispatch queue depth that sheds sync misses and job submissions (0 = 3/4 of -job-queue, negative disables)")
		shedP99     = flag.Duration("shed-p99", 0, "windowed p99 duration of job-engine attempts (every computation, sync or async) that triggers load shedding (0 disables)")
		chaosSpec   = flag.String("chaos", "", "deterministic fault injection for resilience testing, e.g. 'fail=0.2,panic=0.05,delay=0.1,maxdelay=5ms,seed=42' (empty disables)")
	)
	flag.Parse()

	chaos, err := jobs.ParseChaos(*chaosSpec)
	if err != nil {
		return err
	}

	ceiling := budget.Limits{}
	if *maxBudget != "" {
		var err error
		if ceiling, err = budget.Parse(*maxBudget); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Config{
		NFDir:           *nfdir,
		MaxTimeout:      *maxTimeout,
		MaxBudget:       ceiling,
		Parallel:        *parallel,
		MaxInflight:     *maxInflight,
		NFCacheSize:     *nfCache,
		ResultCacheSize: *resultCache,
		JobQueueDepth:   *jobQueue,
		JobMaxAttempts:  *jobRetries,
		JobTTL:          *jobTTL,
		ShedQueue:       *shedQueue,
		ShedP99:         *shedP99,
		Chaos:           chaos,
	})
	if err != nil {
		return err
	}
	if chaos != nil {
		fmt.Fprintln(os.Stderr, "clara-serve: CHAOS INJECTION ACTIVE:", *chaosSpec)
	}

	// Header/read timeouts bound how long a client may dribble a request at
	// us (slowloris); the write side stays unbounded because long analyses
	// legitimately hold responses open up to -max-timeout.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "clara-serve: draining...")
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Drain the analysis layer first (in-flight work completes or is
		// aborted at the deadline), then close the HTTP listener.
		derr := srv.Shutdown(dctx)
		if herr := hs.Shutdown(dctx); derr == nil {
			derr = herr
		}
		shutdownErr <- derr
	}()

	fmt.Printf("clara-serve: listening on %s (library: %d NFs)\n", *addr, srv.LibrarySize())
	if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("clara-serve: drained cleanly")
	return nil
}

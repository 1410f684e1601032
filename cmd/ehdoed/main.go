// Command ehdoed is the surrogate-serving daemon: it keeps a registry of
// fitted response-surface sets in memory and serves predictions, sweeps,
// optimizations and validations over HTTP while DoE builds run as
// background jobs on a worker pool.
//
//	ehdoed -addr :8080 -models ./models -queue 8
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz              liveness + drain state + model count
//	GET    /metrics              Prometheus text exposition (plaintext)
//	GET    /v1/spec              machine-readable API specification
//	GET    /v1/models            registered models
//	GET    /v1/models/{name}     one model: factors, R², RMSE
//	PUT    /v1/models/{name}     upload a saved-surfaces JSON (hot swap)
//	DELETE /v1/models/{name}     unregister
//	POST   /v1/predict           single/batch predictions, natural or coded units
//	POST   /v1/sweep             1-D sweep of one response over one factor
//	POST   /v1/optimize          Nelder–Mead optimum on the surface
//	POST   /v1/validate          confirming simulations vs surface predictions
//	POST   /v1/build             enqueue an async DoE build job ("pool": "cluster" shards it across the worker fleet)
//	GET    /v1/jobs              all jobs
//	GET    /v1/jobs/{id}         one job's status
//	POST   /v1/cluster/register  worker fleet: join (simnode -serve dials these)
//	POST   /v1/cluster/heartbeat worker fleet: liveness
//	POST   /v1/cluster/lease     worker fleet: pull design points
//	POST   /v1/cluster/results   worker fleet: report a finished lease
//	POST   /v1/cluster/deregister worker fleet: clean goodbye
//	GET    /v1/cluster/workers   worker fleet health view
//	GET    /v1/cluster/cache     sharded cache tier: shard map + fleet cache counters
//
// Overload behavior: the synchronous model endpoints sit behind
// per-endpoint admission control (-admission, -limit-surface,
// -limit-validate, -limit-wait) — saturated endpoints shed with a typed
// 429 "overloaded" envelope and a Retry-After hint instead of queueing
// without bound. See README "Overload behavior".
//
// Observability: every request gets (or keeps) an X-Request-ID; the same
// ID threads the access log, build-job transitions and simulation-run
// lines. -log-format json emits machine-parseable lines, -log-level debug
// adds per-simulation and cache-decision detail, and -pprof mounts
// net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM shut the daemon down gracefully: /healthz flips to
// draining, the listener drains, queued builds are cancelled, and the
// in-flight build gets -grace to finish before its context is cancelled.
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

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simcache"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	models := flag.String("models", "", "directory of saved-surfaces *.json to load at startup")
	queue := flag.Int("queue", 8, "build-job queue capacity")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for in-flight builds")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent simulation-cache tier (empty = memory only)")
	cacheSize := flag.Int("cache-size", 512, "in-memory simulation-cache capacity (entries)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	readTimeout := flag.Duration("read-timeout", 60*time.Second, "max duration for reading an entire request (slowloris guard)")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "max keep-alive idle time per connection")
	jobTimeout := flag.Duration("job-timeout", 0, "per-build-job deadline; also caps request timeout_s (0 = unbounded)")
	runTimeout := flag.Duration("run-timeout", 0, "per-simulation-run deadline within a build (0 = unbounded)")
	runRetries := flag.Int("run-retries", 2, "max retries per design run after transient simulation faults")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
	clusterHeartbeat := flag.Duration("cluster-heartbeat", 2*time.Second, "worker-fleet heartbeat interval advertised to simnode workers")
	clusterLeaseTimeout := flag.Duration("cluster-lease-timeout", 60*time.Second, "worker-fleet lease age past which slow leases are stolen")
	clusterLeasePoints := flag.Int("cluster-lease-points", 4, "max design points per worker-fleet lease")
	admission := flag.Bool("admission", true, "per-endpoint admission control (load shedding with Retry-After)")
	limitSurface := flag.Int("limit-surface", 0, "max concurrent surface requests (predict/sweep/optimize) per endpoint (0 = 4×GOMAXPROCS)")
	limitValidate := flag.Int("limit-validate", 0, "max concurrent validate requests (0 = GOMAXPROCS)")
	limitWait := flag.Duration("limit-wait", 0, "max queue wait before a surface request is shed (0 = built-in default)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
	faultCfg := fault.FlagConfig(flag.CommandLine)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ehdoed: %v\n", err)
		os.Exit(1)
	}

	fcfg := faultCfg()
	if err := fcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ehdoed: %v\n", err)
		os.Exit(1)
	}
	var inj *fault.Injector
	if fcfg.Enabled() {
		inj = fault.New(fcfg)
		logger.Warn("fault injection enabled", "seed", fcfg.Seed,
			"p_transient", fcfg.PTransient, "p_permanent", fcfg.PPermanent,
			"p_panic", fcfg.PPanic, "p_nan", fcfg.PNaN, "p_latency", fcfg.PLatency)
	}

	cache := simcache.New(simcache.Options{Capacity: *cacheSize, Dir: *cacheDir})
	// The problem factory wires the resilience policy (and the optional
	// fault injector, in front of the cache) into every build/validate.
	problem := func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Retry = core.RetryPolicy{MaxAttempts: *runRetries + 1, BaseDelay: *retryBase}
		p.RunTimeout = *runTimeout
		var runner simcache.Runner = cache
		if inj != nil {
			runner = inj.Wrap(cache)
		}
		p.Runner = runner
		return p
	}
	srv, err := serve.New(serve.Config{
		ModelsDir:   *models,
		QueueCap:    *queue,
		Problem:     problem,
		Cache:       cache,
		Logger:      logger,
		EnablePprof: *pprof,
		JobTimeout:  *jobTimeout,
		Load: serve.LoadConfig{
			Disable:    !*admission,
			Surface:    serve.EndpointLimit{MaxConcurrent: *limitSurface, MaxWait: *limitWait},
			Validate:   serve.EndpointLimit{MaxConcurrent: *limitValidate},
			RetryAfter: *retryAfter,
		},
		Cluster: cluster.Config{
			HeartbeatInterval: *clusterHeartbeat,
			LeaseTimeout:      *clusterLeaseTimeout,
			LeasePoints:       *clusterLeasePoints,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ehdoed: %v\n", err)
		os.Exit(1)
	}
	logger.Info("ehdoed serving", "models", srv.Registry().Len(), "addr", *addr, "pprof", *pprof)

	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slowloris hardening: bound header receipt, whole-request reads
		// and keep-alive idling so stuck clients can't pin connections.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ehdoed: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		logger.Info("signal received, draining", "signal", s.String(), "grace_s", grace.Seconds())
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		if err := hs.Shutdown(ctx); err != nil {
			logger.Warn("listener shutdown", "err", err.Error())
		}
		cancel()
		srv.Shutdown(*grace)
		logger.Info("ehdoed stopped")
	}
}

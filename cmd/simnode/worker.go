package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// runWorker is simnode's daemon mode (`simnode -serve`): the process joins
// an ehdoed coordinator's fleet, heartbeats, pulls design-point leases and
// streams results back until the context ends, the coordinator drains, or
// an injected kill takes it down. Each leased point runs through the same
// StandardProblem + retry/timeout policy a local build would use, fronted
// by the simulation cache (and the optional fault injector). The cache
// joins the fleet's sharded tier: misses consult the owning peer before
// simulating, and with -peer-listen set this worker serves its owned key
// ranges to the rest of the fleet, so identical points dedup fleet-wide.
func runWorker(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simnode -serve", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://localhost:8080")
	id := fs.String("id", "", "fleet-unique worker ID (empty mints one)")
	concurrency := fs.Int("concurrency", 0, "leased points run in parallel (default: number of CPUs)")
	maxLease := fs.Int("max-lease", 0, "max design points requested per lease (0 = coordinator's default)")
	cacheDir := fs.String("cache-dir", "", "directory for the persistent simulation-cache tier (empty = memory only)")
	cacheSize := fs.Int("cache-size", 512, "in-memory simulation-cache capacity (entries)")
	peerListen := fs.String("peer-listen", "", "peer-cache listen address (e.g. :9090); empty = fetch from peers but own no shard ranges")
	peerAdvertise := fs.String("peer-advertise", "", "peer-cache base URL advertised to the fleet (default http://<peer-listen addr>)")
	peerTimeout := fs.Duration("peer-timeout", 2*time.Second, "peer cache fetch/replication deadline; on expiry the point simulates locally")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	runTimeout := fs.Duration("run-timeout", 0, "per-simulation-run deadline (0 = unbounded)")
	runRetries := fs.Int("run-retries", 2, "max retries per design run after transient simulation faults")
	retryBase := fs.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
	faultCfg := fault.FlagConfig(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("-serve needs -coordinator <url>")
	}
	if *concurrency <= 0 {
		*concurrency = runtime.GOMAXPROCS(0)
	}

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	fcfg := faultCfg()
	if err := fcfg.Validate(); err != nil {
		return err
	}
	var inj *fault.Injector
	if fcfg.Enabled() {
		inj = fault.New(fcfg)
		logger.Warn("fault injection enabled", "seed", fcfg.Seed, "p_kill", fcfg.PKill,
			"p_transient", fcfg.PTransient, "p_permanent", fcfg.PPermanent)
	}

	cache := simcache.New(simcache.Options{Capacity: *cacheSize, Dir: *cacheDir})
	var runner simcache.Runner = cache
	if inj != nil {
		runner = inj.Wrap(cache)
	}
	problem := func(excite, horizon float64) *core.Problem {
		p := core.StandardProblem(excite, horizon)
		p.Retry = core.RetryPolicy{MaxAttempts: *runRetries + 1, BaseDelay: *retryBase}
		p.RunTimeout = *runTimeout
		return p // Runner stays nil: the worker fronts it with the chain below
	}
	wkr, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator:    *coordinator,
		ID:             *id,
		Problem:        problem,
		Runner:         runner,
		Concurrency:    *concurrency,
		MaxLeasePoints: *maxLease,
		Cache:          cache,
		PeerAddr:       *peerListen,
		PeerAdvertise:  *peerAdvertise,
		PeerTimeout:    *peerTimeout,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	if inj != nil {
		// A Kill draw takes the whole daemon down mid-lease, the way a
		// crashed simnode process would vanish from the fleet.
		inj.OnKill(wkr.Kill)
	}

	fmt.Fprintf(w, "simnode worker %s joining fleet at %s\n", wkr.ID(), *coordinator)
	err = wkr.Run(ctx)
	switch {
	case err == nil:
		fmt.Fprintf(w, "simnode worker %s drained cleanly\n", wkr.ID())
	case ctx.Err() != nil && errors.Is(err, context.Canceled):
		// A signal ended the run; not a failure.
		fmt.Fprintf(w, "simnode worker %s stopped\n", wkr.ID())
		return nil
	}
	return err
}

package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// WorkerConfig configures a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// ID is the fleet-unique worker ID; empty mints one ("w-...").
	ID string
	// Problem instantiates the design problem leases describe.
	Problem ProblemFactory
	// Runner, when set, fronts every run the worker executes — the
	// simcache chain (cache, fault injector) identical points dedup
	// through. Problems that wire their own Runner keep it.
	Runner simcache.Runner
	// Concurrency is the number of leased points run in parallel
	// (default 1).
	Concurrency int
	// MaxLeasePoints caps the points requested per lease; <=0 lets the
	// coordinator pick.
	MaxLeasePoints int
	// Heartbeat overrides the coordinator-advertised heartbeat interval
	// when positive.
	Heartbeat time.Duration
	// Cache, when set, joins the worker to the fleet's sharded cache tier:
	// misses consult the owning peer before simulating, and fresh results
	// replicate to the owner. Cache should be the same *simcache.Cache the
	// Runner chain fronts runs with — the remote tier hooks its fill path.
	Cache *simcache.Cache
	// PeerAddr is the peer-protocol listen address (e.g. ":9090" or
	// "127.0.0.1:0"); empty means the worker fetches from peers but serves
	// nothing, so it owns no shard ranges.
	PeerAddr string
	// PeerAdvertise overrides the advertised peer base URL (for NAT'd or
	// named hosts); empty derives "http://<listen-addr>".
	PeerAdvertise string
	// PeerTimeout bounds one peer fetch or replication push (default 2s);
	// on expiry the worker simulates locally.
	PeerTimeout time.Duration
	// Log receives worker lifecycle lines; nil discards them.
	Log *slog.Logger
}

// Worker is one fleet member: it registers with the coordinator,
// heartbeats, pulls leases, runs the points through core.RunPoint (so the
// full retry/timeout/panic-containment semantics apply locally) and
// streams results back. Run blocks until the context is cancelled, the
// coordinator drains, or Kill takes the worker down.
type Worker struct {
	cfg    WorkerConfig
	id     string
	client *Client
	log    *slog.Logger

	hb time.Duration

	mu     sync.Mutex
	epoch  string
	cancel context.CancelCauseFunc

	// peer is the sharded cache tier (nil when cfg.Cache is nil); peerURL
	// is the base URL advertised at registration ("" = serves nothing).
	peer    *peerCache
	peerURL string

	killed atomic.Bool
	wg     sync.WaitGroup
}

// NewWorker builds a worker; start it with Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	if cfg.Problem == nil {
		return nil, fmt.Errorf("cluster: worker needs a problem factory")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	id := cfg.ID
	if id == "" {
		id = obs.NewID("w-")
	}
	lg := cfg.Log
	if lg == nil {
		lg = obs.Nop()
	}
	return &Worker{
		cfg:    cfg,
		id:     id,
		client: &Client{Base: cfg.Coordinator, HTTP: cfg.HTTP},
		log:    lg.With("worker", id),
		hb:     cfg.Heartbeat,
	}, nil
}

// ID returns the worker's fleet ID.
func (w *Worker) ID() string { return w.id }

// Kill simulates an abrupt worker death (the chaos hook behind the fault
// injector's Kill mode): every in-flight run is cancelled, heartbeats
// stop, nothing is reported back, and Run returns ErrKilled. The
// coordinator notices via heartbeat timeout and re-enqueues the leased
// points.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.mu.Lock()
	cancel := w.cancel
	w.mu.Unlock()
	if cancel != nil {
		cancel(ErrKilled)
	}
}

func (w *Worker) setEpoch(e string) {
	w.mu.Lock()
	w.epoch = e
	w.mu.Unlock()
}

func (w *Worker) getEpoch() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.epoch
}

// Run is the worker's pull loop. It returns nil after a clean drain
// (coordinator shutting down), ErrKilled after a chaos kill, or the
// context's cause.
func (w *Worker) Run(ctx context.Context) (err error) {
	runCtx, cancel := context.WithCancelCause(ctx)
	w.mu.Lock()
	w.cancel = cancel
	w.mu.Unlock()
	defer func() {
		cancel(nil)
		w.wg.Wait()
		if w.killed.Load() {
			err = ErrKilled
		}
	}()

	if w.cfg.Cache != nil {
		w.peer = newPeerCache(w.id, w.cfg.Cache, w.cfg.PeerTimeout, w.cfg.HTTP, w.log)
		if w.cfg.PeerAddr != "" {
			url, stop, perr := w.peer.serve(w.cfg.PeerAddr, w.cfg.PeerAdvertise)
			if perr != nil {
				return perr
			}
			w.peerURL = url
			defer stop()
		}
		w.cfg.Cache.SetRemote(w.peer)
		defer w.cfg.Cache.SetRemote(nil)
	}

	draining, err := w.register(runCtx)
	if err != nil || draining {
		return err
	}
	w.wg.Add(1)
	go w.heartbeatLoop(runCtx)

	backoff := minBackoff
	for {
		if runCtx.Err() != nil {
			return context.Cause(runCtx)
		}
		// The coordinator holds an empty request until work is queued, so
		// the worker asks again at once after an empty answer.
		lr, err := w.client.Lease(runCtx, LeaseRequest{
			Worker: w.id, Epoch: w.getEpoch(), Max: w.cfg.MaxLeasePoints,
			Generation: w.generation(),
		})
		if err != nil {
			// Coordinator unreachable: back off until it returns or the
			// context ends.
			w.log.Warn("lease request failed", "err", err.Error())
			if !sleepCtx(runCtx, backoff) {
				return context.Cause(runCtx)
			}
			backoff = nextBackoff(backoff)
			continue
		}
		backoff = minBackoff
		switch {
		case lr.Draining:
			return w.drain(ctx)
		case lr.Gone:
			if draining, err := w.register(runCtx); err != nil || draining {
				return err
			}
			continue
		case lr.Lease == nil:
			w.adoptMap(lr.Map)
			continue
		}

		// Adopt the map carried on the grant before executing, so this
		// lease's misses route against the generation it was granted under.
		w.adoptMap(lr.Map)
		results := w.execute(runCtx, lr.Lease)
		if w.killed.Load() {
			return ErrKilled // a dead worker reports nothing
		}
		rr, err := w.client.Results(runCtx, ResultsRequest{
			Worker: w.id, Epoch: w.getEpoch(), Lease: lr.Lease.ID, Results: results,
			Cache: w.cacheStats(),
		})
		switch {
		case err != nil:
			// The upload was lost; the coordinator will steal the lease and
			// re-run its points. Carry on.
			w.log.Warn("results upload failed", "lease", lr.Lease.ID, "err", err.Error())
		case rr.Draining:
			return w.drain(ctx)
		case rr.Gone:
			if draining, err := w.register(runCtx); err != nil || draining {
				return err
			}
		}
	}
}

// register announces the worker, retrying with backoff while the
// coordinator is unreachable. Reports draining=true when the coordinator
// refused admission because it is shutting down.
func (w *Worker) register(ctx context.Context) (draining bool, err error) {
	backoff := minBackoff
	for {
		resp, err := w.client.Register(ctx, RegisterRequest{
			Worker: w.id, Capacity: w.cfg.Concurrency, PeerURL: w.peerURL,
		})
		if err == nil {
			if resp.Draining {
				w.log.Info("coordinator draining, not joining")
				return true, nil
			}
			w.setEpoch(resp.Epoch)
			w.adoptMap(resp.Map)
			// Adopt the advertised cadence unless configured explicitly.
			// Only the first registration can write it: the heartbeat loop
			// (which reads it) starts after it returns.
			if w.hb <= 0 {
				w.hb = time.Duration(resp.HeartbeatS * float64(time.Second))
				if w.hb <= 0 {
					w.hb = 2 * time.Second
				}
			}
			w.log.Info("worker registered", "epoch", resp.Epoch,
				"heartbeat_ms", float64(w.hb.Microseconds())/1e3)
			return false, nil
		}
		w.log.Warn("register failed, retrying", "err", err.Error())
		if !sleepCtx(ctx, backoff) {
			return false, context.Cause(ctx)
		}
		backoff = nextBackoff(backoff)
	}
}

// The backoff while the coordinator is unreachable: minBackoff, doubling
// per failed call, capped at maxBackoff.
const (
	minBackoff = 50 * time.Millisecond
	maxBackoff = 2 * time.Second
)

func nextBackoff(d time.Duration) time.Duration {
	return min(2*d, maxBackoff)
}

// heartbeatLoop keeps the incarnation alive. Gone/Draining answers are
// acted on by the main loop at its next lease call; the heartbeat only
// maintains liveness.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	defer w.wg.Done()
	t := time.NewTicker(w.hb)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			hr, err := w.client.Heartbeat(ctx, HeartbeatRequest{
				Worker: w.id, Epoch: w.getEpoch(),
				Generation: w.generation(), Cache: w.cacheStats(),
			})
			if err != nil && ctx.Err() == nil {
				w.log.Warn("heartbeat failed", "err", err.Error())
				continue
			}
			w.adoptMap(hr.Map)
		}
	}
}

// drain deregisters cleanly and ends the run loop. It uses the parent
// context (not the kill-cancellable one) so a drain triggered by
// coordinator shutdown still completes the goodbye.
func (w *Worker) drain(ctx context.Context) error {
	w.log.Info("coordinator draining, deregistering")
	if _, err := w.client.Deregister(ctx, DeregisterRequest{Worker: w.id, Epoch: w.getEpoch()}); err != nil {
		w.log.Warn("deregister failed", "err", err.Error())
	}
	return nil
}

// execute runs every point of a lease through core.RunPoint, at the
// configured concurrency, with the lease's trace ID threaded into the obs
// context so coordinator, worker and simulation log lines correlate.
func (w *Worker) execute(ctx context.Context, l *LeaseView) []PointResult {
	p := w.cfg.Problem(l.Excite, l.Horizon)
	if p.Runner == nil && w.cfg.Runner != nil {
		p.Runner = w.cfg.Runner
	}
	lg := w.log.With("lease", l.ID, "job", l.Job)
	if l.Trace != "" {
		lg = lg.With("trace", l.Trace)
		ctx = obs.WithTraceID(ctx, l.Trace)
	}
	ctx = obs.WithLogger(ctx, lg)
	lg.Debug("lease executing", "points", len(l.Points))

	out := make([]PointResult, len(l.Points))
	sem := make(chan struct{}, w.cfg.Concurrency)
	var wg sync.WaitGroup
	for k, pt := range l.Points {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, pt PointAssignment) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			vals, st, err := p.RunPoint(ctx, pt.Index, pt.Coded)
			pr := PointResult{
				Index:     pt.Index,
				ElapsedNs: time.Since(start).Nanoseconds(),
				Retries:   st.Retries,
				Panics:    st.Panics,
			}
			if err != nil {
				pr.Error = err.Error()
				pr.Transient = core.IsTransient(err)
			} else {
				pr.Values = make(map[string]float64, len(vals))
				for id, v := range vals {
					pr.Values[string(id)] = v
				}
			}
			out[k] = pr
		}(k, pt)
	}
	wg.Wait()
	return out
}

// adoptMap installs a newer shard map on the peer tier; a nil map or a
// cache-less worker is a no-op.
func (w *Worker) adoptMap(m *ShardMap) {
	if w.peer != nil {
		w.peer.adopt(m)
	}
}

// generation is the shard-map generation this worker holds (0 = none).
func (w *Worker) generation() uint64 {
	if w.peer == nil {
		return 0
	}
	return w.peer.generation()
}

// cacheStats snapshots the worker's cache counters for piggybacking; nil
// for cache-less workers.
func (w *Worker) cacheStats() *CacheStats {
	if w.peer == nil {
		return nil
	}
	return w.peer.stats()
}

// sleepCtx waits d or until ctx ends; reports whether the full delay
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

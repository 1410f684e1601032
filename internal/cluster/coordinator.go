package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/obs"
)

// Config tunes the coordinator's failure detectors and lease shape. The
// zero value gets production defaults; tests shrink the timeouts.
type Config struct {
	// HeartbeatInterval is advertised to workers at registration
	// (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a silent worker lost and re-enqueues its
	// leased points (default 3× HeartbeatInterval).
	HeartbeatTimeout time.Duration
	// LeaseTimeout makes a slow lease eligible for work-stealing: its
	// unfinished points are re-enqueued for other workers while the
	// original holder may still answer — the first result per point wins
	// (default 60s).
	LeaseTimeout time.Duration
	// LeasePoints caps the design points per lease (default 4).
	LeasePoints int
	// MaxPointAttempts bounds how many times one design point may be
	// granted before its build fails — the fleet-level analogue of
	// core.RetryPolicy.MaxAttempts (default 3).
	MaxPointAttempts int
	// MaxWorkerFailures is the consecutive-failed-points threshold past
	// which a worker is circuit-broken (evicted); it may rejoin by
	// re-registering (default 3).
	MaxWorkerFailures int
	// PollInterval bounds how long a lease request with nothing to grant
	// is held open waiting for work before it is answered empty (default
	// 200ms). Queued or requeued points and draining release held requests
	// at once, so this only sets how often an idle worker re-asks.
	PollInterval time.Duration
	// Shards is the cache shard-map slot count (default DefaultShards).
	Shards int
	// Tick is the failure-detector sweep cadence (default a quarter of the
	// smallest timeout, clamped to [5ms, 1s]).
	Tick time.Duration
	// Log receives fleet lifecycle lines; nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.HeartbeatInterval
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 60 * time.Second
	}
	if c.LeasePoints <= 0 {
		c.LeasePoints = 4
	}
	if c.MaxPointAttempts <= 0 {
		c.MaxPointAttempts = 3
	}
	if c.MaxWorkerFailures <= 0 {
		c.MaxWorkerFailures = 3
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 200 * time.Millisecond
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Tick <= 0 {
		c.Tick = min(c.HeartbeatTimeout, c.LeaseTimeout) / 4
		if c.Tick < 5*time.Millisecond {
			c.Tick = 5 * time.Millisecond
		}
		if c.Tick > time.Second {
			c.Tick = time.Second
		}
	}
	if c.Log == nil {
		c.Log = obs.Nop()
	}
	return c
}

// Worker lifecycle states reported by WorkerView.State.
const (
	workerActive  = "active"
	workerLost    = "lost"
	workerEvicted = "evicted"
)

// workerState is the coordinator's book on one fleet member. Guarded by
// the coordinator mutex.
type workerState struct {
	id       string
	epoch    string
	state    string
	capacity int
	lastBeat time.Time
	leases   map[string]*lease

	// peerURL is the worker's peer-cache base URL; "" means it does not
	// participate in the sharded cache tier.
	peerURL string
	// suspect marks a worker whose lease was stolen: probably slow or
	// unreachable, so it is excluded from the shard ring (peers fetching
	// from it would stall out) until its next successful results upload
	// or re-registration proves it responsive again.
	suspect bool
	// cache is the latest cumulative counter snapshot the worker reported.
	cache CacheStats

	// Lifetime counters for the worker ID, surviving re-registration.
	completed   int
	stolen      int
	failed      int
	consecFails int
}

// lease is one outstanding batch of design points granted to a worker.
type lease struct {
	id      string
	worker  string
	job     *runJob
	points  []PointAssignment
	granted time.Time
	stolen  bool
}

// JobSpec identifies one fleet build and the problem its leases describe.
type JobSpec struct {
	// ID labels leases and log lines (e.g. the serve job ID).
	ID string
	// Trace is the submitting request's trace ID, propagated into every
	// lease so worker-side obs lines correlate with the coordinator's.
	Trace string
	// Excite and Horizon parameterize the worker-side ProblemFactory.
	Excite  float64
	Horizon float64
	// Responses are the dataset columns, in order.
	Responses []core.ResponseID
}

// runJob is one in-flight fleet build. Guarded by the coordinator mutex;
// done is closed exactly once, under the mutex, when the job finishes.
type runJob struct {
	spec   JobSpec
	design *doe.Design

	pending  []int // point indices awaiting a grant, FIFO
	queued   []bool
	attempts []int // grants per point (the fleet-level retry budget)
	rows     []map[core.ResponseID]float64

	remaining int
	simWork   int64 // summed worker-reported run durations, ns
	retries   int   // worker-side retry attempts
	panics    int   // worker-side recovered panics
	requeues  int   // coordinator-level re-grants (loss, steal, transient)

	finished bool
	err      error
	done     chan struct{}
	start    time.Time
}

// coordMetrics are the per-worker fleet instruments, wired by
// RegisterMetrics. All nil-safe: an unwired coordinator just skips them.
type coordMetrics struct {
	inflight  *obs.GaugeVec   // outstanding leases, by worker
	completed *obs.CounterVec // completed points, by worker
	stolen    *obs.CounterVec // stolen (timed-out) leases, by worker
	evicted   *obs.CounterVec // circuit-break evictions, by worker
	requeued  *obs.Counter    // points re-enqueued (loss, steal, transient)
}

// Coordinator owns the fleet: worker health, outstanding leases and the
// point queues of in-flight builds. All mutation happens under one mutex;
// a monitor goroutine sweeps the failure detectors.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	metrics coordMetrics

	mu        sync.Mutex
	draining  bool
	workers   map[string]*workerState
	jobs      []*runJob // submission order; finished jobs are removed
	nextEpoch int
	nextLease int
	nextJob   int

	// shardMap is the published cache shard map (nil until a peer-capable
	// worker registers); shardIDs is the sorted member set it was built
	// from, kept to detect membership changes. departed accumulates the
	// final counter snapshots of cleanly deregistered workers so fleet
	// cache totals stay monotonic across graceful churn.
	shardMap *ShardMap
	shardIDs []string
	departed CacheStats

	// work is closed and replaced (wakeLocked) whenever points are queued
	// or draining starts, releasing every lease request held in Lease.
	work chan struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator starts a coordinator (and its failure-detector sweep);
// stop it with Shutdown.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.Log,
		workers: make(map[string]*workerState),
		work:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.monitor()
	return c
}

// RegisterMetrics adds the per-worker fleet instruments to reg under the
// given prefix. Call once, before workers register.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"_workers", "Live (active) workers registered with the coordinator.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.liveWorkersLocked())
		})
	c.metrics = coordMetrics{
		inflight:  reg.GaugeVec(prefix+"_worker_inflight_leases", "Outstanding work leases, by worker.", "worker"),
		completed: reg.CounterVec(prefix+"_worker_completed_points_total", "Design points completed, by worker.", "worker"),
		stolen:    reg.CounterVec(prefix+"_worker_stolen_leases_total", "Leases stolen after the lease timeout, by worker.", "worker"),
		evicted:   reg.CounterVec(prefix+"_worker_evicted_total", "Circuit-break evictions after consecutive failures, by worker.", "worker"),
		requeued:  reg.Counter(prefix+"_points_requeued_total", "Design points re-enqueued after worker loss, lease theft or transient failures."),
	}
	// Fleet cache-tier counters: sums over every worker's latest reported
	// snapshot plus cleanly departed workers. Monotonic under graceful
	// churn; a worker crash loses its deltas since the last heartbeat.
	cacheCounter := func(name, help string, get func(CacheStats) uint64) {
		reg.CounterFunc(prefix+"_cache_"+name+"_total", help, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(get(c.cacheTotalsLocked()))
		})
	}
	cacheCounter("hits", "Fleet simulations answered from a worker's local cache tiers.",
		func(s CacheStats) uint64 { return s.Hits })
	cacheCounter("misses", "Fleet simulations actually executed by an engine.",
		func(s CacheStats) uint64 { return s.Misses })
	cacheCounter("peer_fetches", "Fleet cache misses answered by the owning peer.",
		func(s CacheStats) uint64 { return s.PeerFetches })
	cacheCounter("peer_timeouts", "Peer fetches that timed out or failed, falling back to local simulation.",
		func(s CacheStats) uint64 { return s.PeerTimeouts })
	cacheCounter("peer_served", "Peer-protocol lookups answered with a cached value.",
		func(s CacheStats) uint64 { return s.PeerServed })
	cacheCounter("peer_stores", "Replicated results accepted from peers.",
		func(s CacheStats) uint64 { return s.PeerStores })
	reg.GaugeFunc(prefix+"_cache_shard_generation", "Current cache shard-map generation (0 = no map published).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.shardMap == nil {
				return 0
			}
			return float64(c.shardMap.Generation)
		})
	reg.GaugeFunc(prefix+"_cache_entries", "Fleet-wide in-memory cache entries (sum of worker snapshots).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.cacheTotalsLocked().Entries)
		})
}

func (c *Coordinator) setInflightLocked(w *workerState) {
	if c.metrics.inflight != nil {
		c.metrics.inflight.With(w.id).Set(float64(len(w.leases)))
	}
}

// rebuildShardsLocked recomputes the shard map from the current
// peer-capable membership (active, non-suspect workers with a peer URL).
// The generation is bumped only when the member set actually changed, so
// heartbeats and repeated state transitions never thrash the map.
func (c *Coordinator) rebuildShardsLocked() {
	ids := make([]string, 0, len(c.workers))
	for _, w := range c.workers {
		if w.state == workerActive && !w.suspect && w.peerURL != "" {
			ids = append(ids, w.id)
		}
	}
	sort.Strings(ids)
	if c.shardMap == nil && len(ids) == 0 {
		return // no peer-capable worker has ever joined; nothing to publish
	}
	if c.shardMap != nil && slices.Equal(ids, c.shardIDs) {
		return
	}
	gen := uint64(1)
	if c.shardMap != nil {
		gen = c.shardMap.Generation + 1
	}
	peers := make(map[string]string, len(ids))
	for _, id := range ids {
		peers[id] = c.workers[id].peerURL
	}
	c.shardIDs = ids
	c.shardMap = &ShardMap{
		Generation: gen,
		Shards:     c.cfg.Shards,
		Owners:     assignShards(ids, c.cfg.Shards),
		Peers:      peers,
	}
	c.log.Info("shard map rebuilt", "generation", gen, "members", len(ids), "shards", c.cfg.Shards)
}

// mapIfNewerLocked returns the published map when it is ahead of the
// generation a worker reported, nil otherwise (nothing to send).
func (c *Coordinator) mapIfNewerLocked(gen uint64) *ShardMap {
	if c.shardMap != nil && c.shardMap.Generation > gen {
		return c.shardMap
	}
	return nil
}

// cacheTotalsLocked sums the fleet's cache counters: the latest snapshot
// of every currently known worker plus the departed accumulator.
func (c *Coordinator) cacheTotalsLocked() CacheStats {
	t := c.departed
	for _, w := range c.workers {
		t.Add(w.cache)
	}
	return t
}

// CacheState snapshots the sharded cache tier for GET /v1/cluster/cache.
func (c *Coordinator) CacheState() CacheStateResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	owned := make(map[string]int)
	if c.shardMap != nil {
		for _, id := range c.shardMap.Owners {
			owned[id]++
		}
	}
	views := make([]CacheWorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		views = append(views, CacheWorkerView{
			ID:      w.id,
			State:   w.state,
			PeerURL: w.peerURL,
			Shards:  owned[w.id],
			Suspect: w.suspect,
			Cache:   w.cache,
		})
	}
	sort.Slice(views, func(i, k int) bool { return views[i].ID < views[k].ID })
	return CacheStateResponse{
		Map:     c.shardMap,
		Workers: views,
		Totals:  c.cacheTotalsLocked(),
	}
}

// Register admits (or re-admits) a worker. Re-registering a known ID
// supersedes the old incarnation: its epoch answers Gone from now on and
// its leased points are re-enqueued — the split-brain rule that keeps at
// most one incarnation authoritative.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Worker == "" {
		return RegisterResponse{}, fmt.Errorf("cluster: register needs a worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return RegisterResponse{Draining: true}, nil
	}
	w := c.workers[req.Worker]
	fresh := w == nil
	if fresh {
		w = &workerState{id: req.Worker}
		c.workers[req.Worker] = w
	} else if len(w.leases) > 0 {
		c.dropLeasesLocked(w, &WorkerLostError{Worker: w.id, Reason: "superseded by re-registration"})
	}
	c.nextEpoch++
	w.epoch = fmt.Sprintf("ep-%06d", c.nextEpoch)
	w.state = workerActive
	w.capacity = req.Capacity
	w.lastBeat = time.Now()
	w.consecFails = 0
	w.suspect = false
	w.peerURL = req.PeerURL
	w.leases = make(map[string]*lease)
	c.setInflightLocked(w)
	c.rebuildShardsLocked()
	c.log.Info("worker registered", "worker", w.id, "epoch", w.epoch, "fresh", fresh,
		"peer_url", w.peerURL)
	return RegisterResponse{
		Epoch:      w.epoch,
		HeartbeatS: c.cfg.HeartbeatInterval.Seconds(),
		Map:        c.shardMap,
	}, nil
}

// checkLocked resolves a (worker, epoch) pair to its active state; any
// mismatch — unknown ID, superseded epoch, lost or evicted incarnation —
// answers nil, and the caller reports Gone.
func (c *Coordinator) checkLocked(worker, epoch string) *workerState {
	w := c.workers[worker]
	if w == nil || w.epoch != epoch || w.state != workerActive {
		return nil
	}
	return w
}

// Heartbeat refreshes a worker's liveness.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.checkLocked(req.Worker, req.Epoch)
	if w == nil {
		return HeartbeatResponse{Gone: true, Draining: c.draining}
	}
	w.lastBeat = time.Now()
	// Heartbeats race the worker's result uploads, so a snapshot taken
	// before the one already recorded can arrive after it; keep the newer.
	if req.Cache != nil && !req.Cache.behind(w.cache) {
		w.cache = *req.Cache
	}
	return HeartbeatResponse{OK: true, Draining: c.draining, Map: c.mapIfNewerLocked(req.Generation)}
}

// Lease grants the next batch of pending design points to the worker.
// Jobs are drained in submission order. A request with nothing to grant
// is held until points are queued, draining starts, ctx ends or
// PollInterval elapses; only the last two answer it empty.
func (c *Coordinator) Lease(ctx context.Context, req LeaseRequest) LeaseResponse {
	var hold *time.Timer // started by the first empty pass
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.draining {
			return LeaseResponse{Draining: true}
		}
		w := c.checkLocked(req.Worker, req.Epoch)
		if w == nil {
			return LeaseResponse{Gone: true}
		}
		w.lastBeat = time.Now()
		if resp, ok := c.grantLocked(w, req); ok {
			return resp
		}
		if hold == nil {
			hold = time.NewTimer(c.cfg.PollInterval)
			defer hold.Stop()
		}
		wake := c.work
		c.mu.Unlock()
		select {
		case <-wake:
			c.mu.Lock()
			continue
		case <-ctx.Done():
		case <-hold.C:
		}
		c.mu.Lock()
		return LeaseResponse{Map: c.mapIfNewerLocked(req.Generation)}
	}
}

// grantLocked moves up to the lease size of the first job's pending
// points into a lease for w; ok is false when no job has pending work.
func (c *Coordinator) grantLocked(w *workerState, req LeaseRequest) (LeaseResponse, bool) {
	maxPts := c.cfg.LeasePoints
	if req.Max > 0 && req.Max < maxPts {
		maxPts = req.Max
	}
	for _, j := range c.jobs {
		if j.finished || len(j.pending) == 0 {
			continue
		}
		n := min(maxPts, len(j.pending))
		pts := make([]PointAssignment, n)
		for k := 0; k < n; k++ {
			idx := j.pending[0]
			j.pending = j.pending[1:]
			j.queued[idx] = false
			j.attempts[idx]++
			pts[k] = PointAssignment{Index: idx, Coded: j.design.Runs[idx]}
		}
		c.nextLease++
		l := &lease{
			id:      fmt.Sprintf("lease-%06d", c.nextLease),
			worker:  w.id,
			job:     j,
			points:  pts,
			granted: time.Now(),
		}
		w.leases[l.id] = l
		c.setInflightLocked(w)
		c.log.Debug("lease granted", "lease", l.id, "worker", w.id, "job", j.spec.ID, "points", n)
		resp := make([]string, len(j.spec.Responses))
		for i, id := range j.spec.Responses {
			resp[i] = string(id)
		}
		return LeaseResponse{
			Lease: &LeaseView{
				ID:        l.id,
				Job:       j.spec.ID,
				Trace:     j.spec.Trace,
				Excite:    j.spec.Excite,
				Horizon:   j.spec.Horizon,
				Responses: resp,
				Points:    pts,
			},
			// Carried on the grant so a worker never executes a lease
			// against an older map than the coordinator holds.
			Map: c.mapIfNewerLocked(req.Generation),
		}, true
	}
	return LeaseResponse{}, false
}

// wakeLocked releases every lease request held in Lease so it re-checks
// the queues (and the draining flag).
func (c *Coordinator) wakeLocked() {
	close(c.work)
	c.work = make(chan struct{})
}

// Results records a finished lease. Results for points already filled by
// another worker (a stolen lease that raced its thief) are dropped —
// first result wins — and results for cancelled or unknown leases are
// acknowledged without effect. Results for points outside the lease are
// ignored, and every leased point the upload leaves unsettled goes back on
// the queue: the lease is closed either way, so an omitted point would
// otherwise be neither pending nor leased and its build would never end.
func (c *Coordinator) Results(req ResultsRequest) ResultsResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.checkLocked(req.Worker, req.Epoch)
	if w == nil {
		return ResultsResponse{Gone: true, Draining: c.draining}
	}
	w.lastBeat = time.Now()
	if req.Cache != nil {
		w.cache = *req.Cache
	}
	if w.suspect {
		// A successful upload proves the worker responsive again: lift the
		// lease-steal suspicion and let it re-own shards.
		w.suspect = false
		c.rebuildShardsLocked()
	}
	l := w.leases[req.Lease]
	if l == nil {
		// The lease was cancelled (its job finished or was shut down);
		// nothing to record.
		return ResultsResponse{OK: true, Draining: c.draining}
	}
	delete(w.leases, req.Lease)
	c.setInflightLocked(w)
	j := l.job
	unsettled := make(map[int]bool, len(l.points))
	for _, pt := range l.points {
		unsettled[pt.Index] = true
	}
	for _, r := range req.Results {
		if j.finished || !unsettled[r.Index] {
			continue
		}
		delete(unsettled, r.Index)
		if r.Error != "" {
			w.failed++
			w.consecFails++
			c.log.Warn("leased point failed", "lease", l.id, "worker", w.id,
				"job", j.spec.ID, "point", r.Index, "transient", r.Transient, "err", r.Error)
			if r.Transient {
				c.requeuePointLocked(j, r.Index, fmt.Errorf("cluster: point %d failed on worker %s: %s", r.Index, w.id, r.Error))
			} else {
				c.finishJobLocked(j, fmt.Errorf("cluster: point %d failed on worker %s: %s", r.Index, w.id, r.Error))
			}
			continue
		}
		w.consecFails = 0
		if j.rows[r.Index] != nil {
			continue // a stolen point's duplicate; the first result won
		}
		row, err := rowFromValues(j.spec.Responses, r.Values)
		if err != nil {
			c.finishJobLocked(j, fmt.Errorf("cluster: point %d from worker %s: %w", r.Index, w.id, err))
			continue
		}
		j.rows[r.Index] = row
		j.remaining--
		j.simWork += r.ElapsedNs
		j.retries += r.Retries
		j.panics += r.Panics
		w.completed++
		if c.metrics.completed != nil {
			c.metrics.completed.With(w.id).Inc()
		}
		if j.remaining == 0 {
			c.finishJobLocked(j, nil)
		}
	}
	if !l.stolen { // a stolen lease's points were requeued when it was stolen
		for _, pt := range l.points {
			if unsettled[pt.Index] {
				c.requeuePointLocked(j, pt.Index, fmt.Errorf("cluster: lease %s on worker %s returned no result for point %d", l.id, w.id, pt.Index))
			}
		}
	}
	if w.consecFails >= c.cfg.MaxWorkerFailures {
		c.evictLocked(w, fmt.Sprintf("%d consecutive failed points", w.consecFails))
	}
	return ResultsResponse{OK: true, Draining: c.draining}
}

// Deregister removes a worker cleanly; any leased points go back to the
// queue.
func (c *Coordinator) Deregister(req DeregisterRequest) DeregisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.Worker]
	if w == nil || w.epoch != req.Epoch {
		return DeregisterResponse{OK: true}
	}
	c.dropLeasesLocked(w, &WorkerLostError{Worker: w.id, Reason: "worker deregistered"})
	delete(c.workers, req.Worker)
	// Fold the departing worker's final snapshot into the accumulator so
	// fleet cache totals stay monotonic across graceful churn.
	c.departed.Add(w.cache)
	c.departed.Entries = 0 // entries is a gauge; departed caches hold none
	c.rebuildShardsLocked()
	if c.metrics.inflight != nil {
		c.metrics.inflight.With(w.id).Set(0)
	}
	c.log.Info("worker deregistered", "worker", w.id, "epoch", w.epoch)
	return DeregisterResponse{OK: true}
}

// Workers returns the fleet health view, sorted by worker ID.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		pts := 0
		for _, l := range w.leases {
			pts += len(l.points)
		}
		out = append(out, WorkerView{
			ID:                  w.id,
			State:               w.state,
			Epoch:               w.epoch,
			Capacity:            w.capacity,
			InflightLeases:      len(w.leases),
			InflightPoints:      pts,
			CompletedPoints:     w.completed,
			StolenLeases:        w.stolen,
			FailedPoints:        w.failed,
			ConsecutiveFailures: w.consecFails,
			LastHeartbeatAgoS:   now.Sub(w.lastBeat).Seconds(),
		})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// LiveWorkers counts the active fleet members.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked()
}

func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if w.state == workerActive {
			n++
		}
	}
	return n
}

// RunDesign shards the design across the fleet and blocks until every
// point has a row, the build fails, ctx is cancelled or the coordinator
// drains. On success the Dataset is bit-identical to a local
// Problem.RunDesign run of the same design (same deterministic
// engine, same column assembly order); on failure it carries the timing
// and fault-recovery stats gathered so far, mirroring the local contract.
func (c *Coordinator) RunDesign(ctx context.Context, spec JobSpec, d *doe.Design) (*core.Dataset, error) {
	if d == nil || d.N() == 0 {
		return nil, fmt.Errorf("cluster: empty design")
	}
	if len(spec.Responses) == 0 {
		return nil, fmt.Errorf("cluster: job spec needs ≥1 response")
	}
	n := d.N()
	j := &runJob{
		spec:      spec,
		design:    d,
		pending:   make([]int, n),
		queued:    make([]bool, n),
		attempts:  make([]int, n),
		rows:      make([]map[core.ResponseID]float64, n),
		remaining: n,
		done:      make(chan struct{}),
		start:     time.Now(),
	}
	for i := range j.pending {
		j.pending[i] = i
		j.queued[i] = true
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, ErrDraining
	}
	if c.liveWorkersLocked() == 0 {
		c.mu.Unlock()
		return nil, ErrNoWorkers
	}
	if j.spec.ID == "" {
		c.nextJob++
		j.spec.ID = fmt.Sprintf("fleet-%06d", c.nextJob)
	}
	c.jobs = append(c.jobs, j)
	c.wakeLocked()
	workers := c.liveWorkersLocked()
	c.mu.Unlock()

	lg := obs.FromContext(ctx)
	lg.Info("fleet build started", "job", j.spec.ID, "design", d.Name, "runs", n, "workers", workers)

	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.finishJobLocked(j, fmt.Errorf("cluster: build aborted: %w", context.Cause(ctx)))
		c.mu.Unlock()
		<-j.done
	case <-j.done:
	}

	c.mu.Lock()
	err := j.err
	ds := &core.Dataset{
		Design:          d,
		SimTime:         time.Since(j.start),
		SimWork:         time.Duration(j.simWork),
		Retries:         j.retries + j.requeues,
		PanicsRecovered: j.panics,
	}
	if err == nil {
		ds.Y = make(map[core.ResponseID][]float64, len(spec.Responses))
		for _, id := range spec.Responses {
			col := make([]float64, n)
			for i, row := range j.rows {
				col[i] = row[id]
			}
			ds.Y[id] = col
		}
	}
	c.mu.Unlock()
	if err != nil {
		lg.Warn("fleet build failed", "job", j.spec.ID, "err", err.Error())
		return ds, err
	}
	lg.Info("fleet build finished", "job", j.spec.ID, "runs", n,
		"sim_ms", float64(ds.SimTime.Microseconds())/1e3,
		"work_ms", float64(ds.SimWork.Microseconds())/1e3,
		"speedup", ds.Speedup(), "requeues", j.requeues)
	return ds, nil
}

// Shutdown drains the fabric: in-flight builds fail with ErrDraining,
// outstanding leases are cancelled with a logged reason, and workers are
// told to deregister on their next call. Idempotent; blocks until the
// monitor goroutine exits.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	if !c.draining {
		c.draining = true
		for _, j := range append([]*runJob(nil), c.jobs...) {
			c.finishJobLocked(j, ErrDraining)
		}
		for _, w := range c.workers {
			for _, l := range w.leases {
				c.log.Info("lease canceled", "lease", l.id, "worker", w.id,
					"job", l.job.spec.ID, "reason", "coordinator draining")
			}
			w.leases = make(map[string]*lease)
			c.setInflightLocked(w)
		}
		c.log.Info("coordinator draining", "workers", len(c.workers))
		c.wakeLocked()
	}
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// monitor is the failure-detector sweep: heartbeat timeouts, lease
// timeouts (work-stealing), and the no-capacity backstop.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.sweep(now)
		}
	}
}

func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.state == workerActive && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			c.log.Warn("worker lost", "worker", w.id, "epoch", w.epoch,
				"silence_ms", float64(now.Sub(w.lastBeat).Microseconds())/1e3, "leases", len(w.leases))
			c.dropLeasesLocked(w, &WorkerLostError{Worker: w.id, Reason: "heartbeat timeout"})
			w.state = workerLost
			c.setInflightLocked(w)
			c.rebuildShardsLocked() // its shard ranges move to the survivors
		}
	}
	for _, w := range c.workers {
		for _, l := range w.leases {
			if !l.stolen && now.Sub(l.granted) > c.cfg.LeaseTimeout {
				l.stolen = true
				w.stolen++
				if c.metrics.stolen != nil {
					c.metrics.stolen.With(w.id).Inc()
				}
				c.log.Warn("lease stolen", "lease", l.id, "worker", w.id,
					"job", l.job.spec.ID, "age_ms", float64(now.Sub(l.granted).Microseconds())/1e3)
				for _, pt := range l.points {
					c.requeuePointLocked(l.job, pt.Index,
						fmt.Errorf("cluster: lease %s timed out on worker %s", l.id, w.id))
				}
				if !w.suspect && w.peerURL != "" {
					// A stolen lease marks the worker suspect: peers should
					// stop routing cache fetches at a node that can't finish
					// its own work in time. Its next successful results
					// upload clears the flag.
					w.suspect = true
					c.rebuildShardsLocked()
				}
			}
		}
	}
	// With the whole fleet gone, pending work can never finish: fail the
	// builds now instead of waiting out their deadlines. (Stolen leases
	// keep jobs live as long as any active worker remains.)
	if c.liveWorkersLocked() == 0 {
		for _, j := range append([]*runJob(nil), c.jobs...) {
			c.finishJobLocked(j, fmt.Errorf("cluster: build stalled: %w", ErrNoWorkers))
		}
	}
}

// dropLeasesLocked cancels every lease of a worker, re-enqueueing the
// unfinished points under the given cause.
func (c *Coordinator) dropLeasesLocked(w *workerState, cause error) {
	for _, l := range w.leases {
		c.log.Info("lease canceled", "lease", l.id, "worker", w.id,
			"job", l.job.spec.ID, "reason", cause.Error())
		for _, pt := range l.points {
			c.requeuePointLocked(l.job, pt.Index, cause)
		}
	}
	w.leases = make(map[string]*lease)
	c.setInflightLocked(w)
}

// evictLocked circuit-breaks a worker after consecutive failures: its
// leases are re-enqueued and its epoch answers Gone. Re-registering
// resets the breaker with a fresh epoch.
func (c *Coordinator) evictLocked(w *workerState, reason string) {
	if w.state == workerEvicted {
		return
	}
	c.log.Warn("worker evicted", "worker", w.id, "epoch", w.epoch, "reason", reason)
	c.dropLeasesLocked(w, &WorkerLostError{Worker: w.id, Reason: "evicted: " + reason})
	w.state = workerEvicted
	c.rebuildShardsLocked()
	if c.metrics.evicted != nil {
		c.metrics.evicted.With(w.id).Inc()
	}
}

// requeuePointLocked puts a point back on its job's queue unless it is
// already filled, already queued, or out of grant budget — in which case
// the build fails with the exhausting cause.
func (c *Coordinator) requeuePointLocked(j *runJob, idx int, cause error) {
	if j.finished || j.rows[idx] != nil || j.queued[idx] {
		return
	}
	if j.attempts[idx] >= c.cfg.MaxPointAttempts {
		c.finishJobLocked(j, fmt.Errorf("cluster: point %d failed after %d grants: %w", idx, j.attempts[idx], cause))
		return
	}
	j.pending = append(j.pending, idx)
	j.queued[idx] = true
	j.requeues++
	c.wakeLocked()
	if c.metrics.requeued != nil {
		c.metrics.requeued.Inc()
	}
}

// finishJobLocked resolves a job exactly once (err == nil means success)
// and removes it from the active list.
func (c *Coordinator) finishJobLocked(j *runJob, err error) {
	if j.finished {
		return
	}
	j.finished = true
	j.err = err
	for i, other := range c.jobs {
		if other == j {
			c.jobs = append(c.jobs[:i], c.jobs[i+1:]...)
			break
		}
	}
	close(j.done)
}

// rowFromValues decodes a worker's response map into a typed row,
// requiring every spec response to be present.
func rowFromValues(ids []core.ResponseID, vals map[string]float64) (map[core.ResponseID]float64, error) {
	row := make(map[core.ResponseID]float64, len(ids))
	for _, id := range ids {
		v, ok := vals[string(id)]
		if !ok {
			return nil, fmt.Errorf("cluster: result lacks response %q", id)
		}
		row[id] = v
	}
	return row, nil
}

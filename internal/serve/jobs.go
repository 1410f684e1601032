package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/obs"
	"repro/internal/sim"
)

// JobState is the lifecycle of a build job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one asynchronous DoE build. Fields are guarded by the owning
// manager's mutex; handlers only ever see View snapshots.
type Job struct {
	ID    string
	Trace string // request ID of the submitting /v1/build call
	Req   BuildRequest

	State    JobState
	Error    string
	Code     string // machine-readable failure class (jobCode*)
	Runs     int    // design size, known once the job starts
	Timeout  time.Duration
	Enqueued time.Time
	Started  time.Time
	Finished time.Time
	SimTime  time.Duration
	Speedup  float64
	R2       map[string]float64
	Retries  int                 // design-run attempts retried after transient faults
	Panics   int                 // simulation panics recovered into errors
	Batch    *core.BatchStats    // lockstep-executor stats of a local fast build
	Adaptive *core.AdaptiveStats // per-round record when the adaptive strategy ran
}

// view renders a snapshot; callers must hold the manager lock.
func (j *Job) view() JobView {
	v := JobView{
		ID:         j.ID,
		TraceID:    j.Trace,
		Model:      j.Req.Model,
		Strategy:   j.Req.Strategy,
		Design:     j.Req.Design,
		State:      string(j.State),
		Runs:       j.Runs,
		Horizon:    j.Req.Horizon,
		Excite:     j.Req.Excite,
		Seed:       j.Req.Seed,
		Workers:    j.Req.Workers,
		Pool:       j.Req.Pool,
		Engine:     j.Req.Engine,
		Batch:      j.Batch,
		Adaptive:   j.Adaptive,
		Error:      j.Error,
		ErrorCode:  j.Code,
		EnqueuedAt: stamp(j.Enqueued),
		StartedAt:  stamp(j.Started),
		FinishedAt: stamp(j.Finished),
		Speedup:    j.Speedup,

		Retries:         j.Retries,
		PanicsRecovered: j.Panics,
	}
	if j.Timeout > 0 {
		v.TimeoutS = j.Timeout.Seconds()
	}
	if j.SimTime > 0 {
		v.SimMillis = float64(j.SimTime.Microseconds()) / 1e3
	}
	if len(j.R2) > 0 {
		v.R2 = make(map[string]float64, len(j.R2))
		for k, r2 := range j.R2 {
			v.R2[k] = r2
		}
	}
	return v
}

// ProblemFactory instantiates the design problem a build simulates;
// cmd/ehdoed uses core.StandardProblem, tests substitute faster problems.
type ProblemFactory func(excite, horizon float64) *core.Problem

// jobHistory is how many finished (done, failed or canceled) jobs a
// JobManager keeps for Get and List. Once more have finished, the oldest
// are dropped; queued and running jobs are never dropped.
const jobHistory = 1024

// JobManagerConfig configures a JobManager.
type JobManagerConfig struct {
	// Registry receives finished surfaces under the requested model name;
	// nil means a fresh empty registry.
	Registry *Registry
	// Problem instantiates the problem a build simulates; nil means
	// core.StandardProblem.
	Problem ProblemFactory
	// QueueCap bounds the jobs waiting behind the running one (default 8).
	QueueCap int
	// Log receives job-transition lines; nil discards them.
	Log *slog.Logger
	// JobTimeout bounds each build; it is both the default when a request
	// sets no timeout_s and the cap when it does. <=0 means unbounded.
	JobTimeout time.Duration
	// Faults, when set, receives design-run retry/panic-recovery counts
	// from builds (via obs.WithFaultStats), so the server can expose them
	// as metrics.
	Faults *obs.FaultStats
	// Cluster, when set, executes builds that request pool "cluster" by
	// sharding the design points across the registered worker fleet.
	Cluster *cluster.Coordinator
	// Metrics receives the job counters: terminal states, batch lanes and
	// amortized rebuilds, and per-build point accounting. nil means a
	// private registry.
	Metrics *obs.Registry
}

// JobManager owns a bounded queue of build jobs and a single build worker:
// DoE builds saturate the cores on their own via core.Build, so
// running them one at a time maximizes per-build throughput and keeps the
// queue semantics obvious. Finished surfaces are registered (atomically
// swapped) into the registry under the requested model name.
type JobManager struct {
	registry   *Registry
	problem    ProblemFactory
	log        *slog.Logger
	jobTimeout time.Duration
	faults     *obs.FaultStats
	cluster    *cluster.Coordinator

	finished   *obs.CounterVec
	batchLanes *obs.Counter
	batchAmort *obs.Counter
	rounds     *obs.Counter
	ptsSim     *obs.Counter
	ptsSkip    *obs.Counter

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*Job
	order  []string
	kept   int // finished jobs still in jobs and order
	queue  chan *Job
}

// NewJobManager starts the build worker.
func NewJobManager(cfg JobManagerConfig) *JobManager {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 8
	}
	if cfg.Problem == nil {
		cfg.Problem = core.StandardProblem
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = obs.Nop()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &JobManager{
		registry:   cfg.Registry,
		problem:    cfg.Problem,
		log:        cfg.Log,
		jobTimeout: cfg.JobTimeout,
		faults:     cfg.Faults,
		cluster:    cfg.Cluster,
		finished:   reg.CounterVec("ehdoed_jobs_total", "Build jobs finished, by terminal state.", "state"),
		batchLanes: reg.Counter("ehdoed_sim_batch_lanes_total",
			"Design points simulated as lockstep lanes by local fast builds."),
		batchAmort: reg.Counter("ehdoed_sim_batch_rebuild_amortized_total",
			"Lane ZOH rebuilds answered by a bake shared with another lane."),
		rounds: reg.Counter("ehdoed_build_rounds",
			"Design rounds executed by finished builds (a fixed build counts one round)."),
		ptsSim: reg.Counter("ehdoed_build_points_simulated_total",
			"Design points simulated by finished builds."),
		ptsSkip: reg.Counter("ehdoed_build_points_skipped_total",
			"Design points adaptive builds avoided relative to the fixed-strategy reference design."),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		queue:  make(chan *Job, cfg.QueueCap),
	}
	m.wg.Add(1)
	go m.worker()
	return m
}

// Submit validates and enqueues a build, returning its snapshot. The
// context's trace ID (obs.TraceID) is inherited by the job: the build
// worker logs every transition and simulation under it, so one request ID
// follows the build from HTTP accept to finished surfaces.
func (m *JobManager) Submit(ctx context.Context, req BuildRequest) (JobView, error) {
	if req.Model == "" {
		return JobView{}, fmt.Errorf("serve: build needs a model name")
	}
	// Strategy resolves to its explicit spelling up front, like Engine below.
	strategy, err := normalizeStrategy(req.Strategy)
	if err != nil {
		return JobView{}, err
	}
	req.Strategy = strategy
	if req.Strategy == StrategyAdaptive {
		// The sequential loop picks its own points and sizes itself; a
		// design name or run count here would be silently ignored, so both
		// are contract violations.
		if req.Design != "" {
			return JobView{}, fmt.Errorf("serve: adaptive builds choose their own design; drop design %q", req.Design)
		}
		if req.Runs != 0 {
			return JobView{}, fmt.Errorf("serve: adaptive builds size the design themselves; drop runs %d", req.Runs)
		}
		req.Design = StrategyAdaptive // job snapshots report what actually ran
	}
	if req.Design == "" {
		req.Design = "ccf"
	}
	if req.Horizon < 0 || req.Excite < 0 {
		return JobView{}, fmt.Errorf("serve: horizon_s %g and excite %g must be non-negative", req.Horizon, req.Excite)
	}
	if req.TimeoutS < 0 {
		return JobView{}, fmt.Errorf("serve: timeout_s %g must be non-negative", req.TimeoutS)
	}
	if req.Horizon == 0 {
		req.Horizon = 60
	}
	// The default excitation resolves up front, so job snapshots always
	// report what was simulated.
	if req.Excite == 0 {
		req.Excite = 0.6
	}
	// Engine resolves to its explicit spelling up front, so job snapshots
	// always report the engine that actually runs the build.
	engine, err := normalizeEngine(req.Engine)
	if err != nil {
		return JobView{}, err
	}
	req.Engine = engine
	// Pool picks the execution fabric; fail fast when the cluster pool is
	// requested but cannot possibly serve the build.
	switch req.Pool {
	case "", PoolLocal:
	case PoolCluster:
		if m.cluster == nil {
			return JobView{}, fmt.Errorf("serve: pool %q: this server has no cluster coordinator", req.Pool)
		}
		if req.Engine == EngineReference {
			// The worker fleet runs the fast engine (or its synonym batch)
			// only; a silent engine switch would misreport what was
			// simulated.
			return JobView{}, fmt.Errorf("serve: pool %q only runs engine %q, not %q", req.Pool, EngineFast, req.Engine)
		}
		if m.cluster.LiveWorkers() == 0 {
			return JobView{}, fmt.Errorf("serve: pool %q: %w", req.Pool, cluster.ErrNoWorkers)
		}
	default:
		return JobView{}, fmt.Errorf("serve: unknown pool %q (want %q or %q)", req.Pool, PoolLocal, PoolCluster)
	}
	// Fail fast on an unknown design (or a problem too small for the
	// adaptive loop) instead of at run time.
	k := len(m.problem(req.Excite, req.Horizon).Factors)
	if req.Strategy == StrategyAdaptive {
		if k < 2 {
			return JobView{}, fmt.Errorf("serve: adaptive builds need ≥2 factors, the served problem has %d", k)
		}
	} else if _, err := core.NamedDesign(req.Design, k, req.Runs, req.Seed); err != nil {
		return JobView{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, ErrShuttingDown
	}
	m.nextID++
	j := &Job{
		ID:       fmt.Sprintf("job-%06d", m.nextID),
		Trace:    obs.TraceID(ctx),
		Req:      req,
		State:    JobQueued,
		Timeout:  m.effectiveTimeout(req.TimeoutS),
		Enqueued: time.Now(),
	}
	select {
	case m.queue <- j:
	default:
		return JobView{}, ErrQueueFull
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.jobLog(j).Info("job enqueued", "model", req.Model, "design", req.Design)
	return j.view(), nil
}

// effectiveTimeout resolves a request's timeout_s against the manager's
// configured bound: the request may only tighten the deadline, never relax
// it past the config. Zero everywhere means no deadline.
func (m *JobManager) effectiveTimeout(timeoutS float64) time.Duration {
	t := m.jobTimeout
	if timeoutS > 0 {
		req := time.Duration(timeoutS * float64(time.Second))
		if t <= 0 || req < t {
			t = req
		}
	}
	return t
}

// jobLog binds a logger with the job's identity: its own ID plus the
// trace ID of the request that created it.
func (m *JobManager) jobLog(j *Job) *slog.Logger {
	lg := m.log.With("job", j.ID)
	if j.Trace != "" {
		lg = lg.With("trace", j.Trace)
	}
	return lg
}

// ErrQueueFull is returned by Submit when the bounded queue is at capacity;
// the HTTP layer maps it to 503/queue_full.
var ErrQueueFull = fmt.Errorf("serve: build queue is full")

// ErrShuttingDown is returned by Submit once Shutdown has begun; the HTTP
// layer maps it to 503/shutting_down.
var ErrShuttingDown = fmt.Errorf("serve: job manager is shutting down")

// QueueDepth reports how many builds wait behind the running one right
// now — /healthz and the ehdoed_queue_depth gauge surface it.
func (m *JobManager) QueueDepth() int { return len(m.queue) }

// QueueCap reports the bounded queue's capacity.
func (m *JobManager) QueueCap() int { return cap(m.queue) }

// Get returns the snapshot of one job; a finished job past jobHistory is
// gone.
func (m *JobManager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List returns snapshots of every retained job in submission order.
func (m *JobManager) List() []JobView {
	out, _ := m.ListPage("", "", 0)
	return out
}

// ListPage returns retained job snapshots in submission order, optionally
// filtered by state, starting after the given job ID (exclusive cursor;
// empty or no longer retained = from the oldest retained job) and bounded
// by limit (<=0 = unbounded). more reports whether matching jobs remain
// past the page.
func (m *JobManager) ListPage(state JobState, after string, limit int) (page []JobView, more bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := 0
	if after != "" {
		for i, id := range m.order {
			if id == after {
				start = i + 1
				break
			}
		}
	}
	page = []JobView{}
	for _, id := range m.order[start:] {
		j := m.jobs[id]
		if state != "" && j.State != state {
			continue
		}
		if limit > 0 && len(page) == limit {
			return page, true
		}
		page = append(page, j.view())
	}
	return page, false
}

// Shutdown stops accepting jobs, cancels everything still queued, and
// drains the in-flight build: it may finish within the grace period; past
// it the build's context is cancelled and the job reports canceled.
func (m *JobManager) Shutdown(grace time.Duration) {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		// Queued-but-unstarted jobs are cancelled outright; only the one
		// already running gets the grace period.
		for {
			var j *Job
			select {
			case j = <-m.queue:
			default:
			}
			if j == nil {
				break
			}
			j.State = JobCanceled
			j.Error = "canceled: server shutting down"
			j.Code = jobCodeCanceled
			j.Finished = time.Now()
			m.retire()
			m.jobLog(j).Info("job canceled", "reason", "server shutting down, job still queued")
			m.countFinished(JobCanceled)
		}
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		m.log.Warn("job shutdown grace expired, cancelling in-flight build", "grace_s", grace.Seconds())
		m.cancel()
		<-done
	}
	m.cancel()
}

// retire records that one more job reached a terminal state and, past
// jobHistory, drops the oldest finished job. Callers hold m.mu.
func (m *JobManager) retire() {
	m.kept++
	if m.kept <= jobHistory {
		return
	}
	for i, id := range m.order {
		if s := m.jobs[id].State; s != JobQueued && s != JobRunning {
			delete(m.jobs, id)
			m.order = slices.Delete(m.order, i, i+1)
			m.kept--
			return
		}
	}
}

func (m *JobManager) countFinished(state JobState) {
	m.finished.With(string(state)).Inc()
}

func (m *JobManager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		if m.ctx.Err() != nil {
			m.finish(j, JobCanceled, jobCodeCanceled, fmt.Errorf("canceled: server shutting down"))
			continue
		}
		m.run(j)
	}
}

// run executes one build through core.Build: the named design of a fixed
// build or the sequential loop of an adaptive one, with every round
// simulated by the local pool or, for pool "cluster", sharded across the
// worker fleet.
func (m *JobManager) run(j *Job) {
	lg := m.jobLog(j)
	// The build inherits the submitting request's trace: simulation-run
	// and cache log lines carry the same trace ID as the access log.
	ctx := obs.WithLogger(obs.WithTraceID(m.ctx, j.Trace), lg)
	if m.faults != nil {
		ctx = obs.WithFaultStats(ctx, m.faults)
	}
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}

	p := m.problem(j.Req.Excite, j.Req.Horizon)
	// Engine selection: the reference engine swaps the simulator itself;
	// fast and its synonym batch keep the default engine, whose local
	// builds run through the lockstep executor. Submit already resolved
	// the default and rejected unknown values.
	if j.Req.Engine == EngineReference {
		p.Engine = sim.RunReference
		p.EngineName = core.EngineReference
	}
	spec := core.BuildSpec{Problem: p, Workers: j.Req.Workers}
	if j.Req.Strategy == StrategyAdaptive {
		spec.Adaptive = &core.AdaptiveConfig{Seed: j.Req.Seed}
	} else {
		design, err := core.NamedDesign(j.Req.Design, len(p.Factors), j.Req.Runs, j.Req.Seed)
		if err != nil {
			m.finish(j, JobFailed, "", err)
			return
		}
		spec.Design = design
	}
	if j.Req.Pool == PoolCluster {
		// Shard each round's points across the worker fleet. The trace ID
		// rides on every lease, so worker-side run logs correlate with the
		// submitting request, and the round-suffixed job ID keeps them
		// attributable to this job.
		spec.Run = func(ctx context.Context, d *doe.Design) (*core.Dataset, error) {
			return m.cluster.RunDesign(ctx, cluster.JobSpec{
				ID:        j.ID + "-" + d.Name,
				Trace:     j.Trace,
				Excite:    j.Req.Excite,
				Horizon:   j.Req.Horizon,
				Responses: p.Responses,
			}, d)
		}
	}

	runs := 0 // an adaptive build learns its size as it goes
	if spec.Design != nil {
		runs = spec.Design.N()
	}
	m.mu.Lock()
	j.State = JobRunning
	j.Started = time.Now()
	j.Runs = runs
	wait := j.Started.Sub(j.Enqueued)
	m.mu.Unlock()
	lg.Info("job started", "model", j.Req.Model, "strategy", j.Req.Strategy,
		"design", j.Req.Design, "runs", runs,
		"queue_wait_ms", float64(wait.Microseconds())/1e3)

	res, err := core.Build(ctx, spec)
	if res != nil && res.Dataset != nil {
		// Even a failed build carries its fault-recovery, batch and
		// per-round stats.
		ds := res.Dataset
		m.mu.Lock()
		j.Retries = ds.Retries
		j.Panics = ds.PanicsRecovered
		j.SimTime = ds.SimTime
		j.Batch = ds.Batch
		if res.Adaptive != nil {
			j.Adaptive = res.Adaptive
			j.Runs = res.Adaptive.PointsSimulated
		}
		m.mu.Unlock()
		if ds.Batch != nil {
			m.batchLanes.Add(uint64(ds.Batch.Lanes))
			m.batchAmort.Add(uint64(ds.Batch.AmortizedRebuilds))
		}
	}
	if err != nil {
		state, code, werr := m.classify(ctx, j, err)
		m.finish(j, state, code, werr)
		return
	}
	ds := res.Dataset
	saved := res.Surfaces.SaveWithData(ds)
	m.registry.Set(j.Req.Model, saved)

	// Count and log before publishing done, so a reader that sees the
	// terminal state also sees the counters and the "job done" line.
	// Only this goroutine writes j.Started, so it is read unlocked.
	finished := time.Now()
	dur := finished.Sub(j.Started)
	m.countFinished(JobDone)
	rounds, skipped := 1, 0
	if a := res.Adaptive; a != nil {
		rounds, skipped = len(a.Rounds), a.PointsSkipped
	}
	m.rounds.Add(uint64(rounds))
	m.ptsSim.Add(uint64(ds.Design.N()))
	m.ptsSkip.Add(uint64(skipped))
	lg.Info("job done", "model", j.Req.Model, "strategy", j.Req.Strategy,
		"runs", ds.Design.N(), "rounds", rounds,
		"dur_ms", float64(dur.Microseconds())/1e3,
		"sim_ms", float64(ds.SimTime.Microseconds())/1e3,
		"speedup", ds.Speedup())

	m.mu.Lock()
	j.State = JobDone
	j.Finished = finished
	j.Speedup = ds.Speedup()
	j.R2 = make(map[string]float64, len(saved.R2))
	for id, r2 := range saved.R2 {
		j.R2[string(id)] = r2
	}
	m.retire()
	m.mu.Unlock()
}

// classify maps a failed build's error to its terminal state and
// machine-readable code. ctx is the job's own context (with the per-job
// deadline applied); m.ctx distinguishes shutdown from everything else.
func (m *JobManager) classify(ctx context.Context, j *Job, err error) (JobState, string, error) {
	var perr *core.RunPanicError
	var nerr *core.NumericError
	switch {
	case m.ctx.Err() != nil:
		return JobCanceled, jobCodeCanceled, err
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		// The job's own deadline fired, as opposed to a per-run timeout
		// bubbling up (RunTimeoutError also unwraps to DeadlineExceeded).
		return JobFailed, jobCodeTimeout,
			fmt.Errorf("build exceeded its %s timeout: %w", j.Timeout, err)
	case errors.Is(err, cluster.ErrDraining):
		return JobCanceled, jobCodeCanceled, err
	case errors.Is(err, cluster.ErrNoWorkers):
		return JobFailed, jobCodeNoWorkers, err
	case errors.As(err, &perr):
		return JobFailed, jobCodePanic, err
	case errors.As(err, &nerr):
		return JobFailed, jobCodeNumeric, err
	}
	return JobFailed, "", err
}

// finish publishes a failed or canceled job, counting and logging it
// first, as run does for a done one.
func (m *JobManager) finish(j *Job, state JobState, code string, err error) {
	finished := time.Now()
	var dur time.Duration
	if !j.Started.IsZero() {
		dur = finished.Sub(j.Started)
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	m.countFinished(state)
	lg := m.jobLog(j).With("dur_ms", float64(dur.Microseconds())/1e3)
	switch state {
	case JobCanceled:
		lg.Info("job canceled", "reason", msg)
	default:
		lg.Warn("job failed", "code", code, "err", msg)
	}

	m.mu.Lock()
	j.State = state
	j.Code = code
	j.Error = msg
	j.Finished = finished
	m.retire()
	m.mu.Unlock()
}

package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doe"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/rsm"
)

// BuildSpec describes one build: the problem, the plan that picks its
// design points, the model fitted to them and the executor that simulates
// them.
type BuildSpec struct {
	Problem *Problem
	// Design is the plan of a fixed build, simulated in one round.
	Design *doe.Design
	// Adaptive, when set, grows the design sequentially instead of
	// simulating Design; the loop picks every point itself.
	Adaptive *AdaptiveConfig
	// Model defaults to rsm.FullQuadratic(k).
	Model rsm.Model
	// Workers is the local pool's simulation parallelism (≤0 = GOMAXPROCS).
	Workers int
	// Run simulates one round's design. nil means the local pool
	// (Problem.RunDesign with Workers), with its lockstep executor;
	// the cluster coordinator plugs in here. Either way each run gets the
	// problem's retries, deadlines, cache and cancellation.
	Run func(ctx context.Context, d *doe.Design) (*Dataset, error)
}

// BuildResult is the outcome of a build: the dataset, the fitted surfaces
// and, for adaptive builds, the per-round statistics.
type BuildResult struct {
	Dataset  *Dataset
	Surfaces *Surfaces
	Adaptive *AdaptiveStats
}

// Build runs the flow end to end: simulate the plan's design points, then
// fit the model to every response. A fixed build (Adaptive nil) is a
// single round: one executor call and one BuildSurfaces. An adaptive build
// repeats simulate-and-refit rounds until its stopping rule fires.
//
// Once simulation has started, a failed build still returns a non-nil
// result whose Y-less Dataset carries the timing, fault-recovery and batch
// stats of the rounds run, plus the per-round stats of an adaptive build.
func Build(ctx context.Context, spec BuildSpec) (*BuildResult, error) {
	p := spec.Problem
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := len(p.Factors)
	model := spec.Model
	if model.K == 0 {
		model = rsm.FullQuadratic(k)
	}
	if model.K != k {
		return nil, fmt.Errorf("core: model has %d factors, problem has %d", model.K, k)
	}
	run := spec.Run
	if run == nil {
		run = func(ctx context.Context, d *doe.Design) (*Dataset, error) {
			return p.RunDesign(ctx, d, spec.Workers)
		}
	}
	if spec.Adaptive != nil {
		return p.buildAdaptive(ctx, *spec.Adaptive, model, run)
	}
	if spec.Design == nil {
		return nil, fmt.Errorf("core: a fixed build needs a design")
	}
	ds, err := run(ctx, spec.Design)
	res := &BuildResult{Dataset: ds}
	if err != nil {
		return res, err
	}
	res.Surfaces, err = p.BuildSurfaces(ds, model)
	return res, err
}

// RunDesign simulates the design's runs across a worker pool — DoE runs
// are embarrassingly parallel, so the "moderate number of simulations"
// amortizes across cores. workers ≤ 0 uses GOMAXPROCS. When ctx is
// cancelled — or as soon as any run fails — the remaining simulations are
// abandoned instead of running to completion: early abort on error and
// cancel-on-shutdown. Workers never start a run after the abort signal;
// runs already in flight finish (the simulator itself is not preemptible)
// and are discarded.
//
// On the default fast engine behind a runner with a cache tier (the
// simulation cache), the runs go through the lockstep executor (see
// runLockstep): points sharing an excitation are stepped together by
// sim.RunBatch, bit-identical to one sim.RunFast each, and the Dataset
// carries its BatchStats. Any other engine or runner takes the per-point
// path, where each run passes through the runner on its own.
func (p *Problem) RunDesign(ctx context.Context, d *doe.Design, workers int) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("core: empty design")
	}
	if d.K() != len(p.Factors) {
		return nil, fmt.Errorf("core: design has %d factors, problem has %d", d.K(), len(p.Factors))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > d.N() {
		workers = d.N()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: design run aborted: %w", err)
	}
	lg := obs.FromContext(ctx)
	lg.Info("design run started", "design", d.Name, "runs", d.N(), "workers", workers)
	start := time.Now()
	r := &designRun{p: p, ctx: ctx, d: d, rows: make([]map[ResponseID]float64, d.N()), abort: make(chan struct{})}
	stop := context.AfterFunc(ctx, r.cancelled)
	defer stop()

	var batch *BatchStats
	if tier := p.lockstepTier(); tier != nil {
		batch = r.runLockstep(workers, tier)
	} else {
		all := make([]int, d.N())
		for i := range all {
			all[i] = i
		}
		r.runPoints(workers, all)
	}
	r.mu.Lock()
	err := r.first
	r.mu.Unlock()
	if err != nil {
		lg.Warn("design run aborted", "design", d.Name, "err", err.Error())
		// Return a Y-less Dataset carrying the timing and fault-recovery
		// stats of the aborted run, so callers (e.g. the job manager) can
		// still surface retry/panic counts for failed builds.
		return &Dataset{
			Design:          d,
			SimTime:         time.Since(start),
			SimWork:         time.Duration(r.work.Load()),
			Retries:         int(r.retries.Load()),
			PanicsRecovered: int(r.panics.Load()),
			Batch:           batch,
		}, err
	}
	ds := &Dataset{Design: d, Y: make(map[ResponseID][]float64, len(p.Responses))}
	for _, id := range p.Responses {
		col := make([]float64, d.N())
		for i, row := range r.rows {
			col[i] = row[id]
		}
		ds.Y[id] = col
	}
	ds.SimTime = time.Since(start)
	ds.SimWork = time.Duration(r.work.Load())
	ds.Retries = int(r.retries.Load())
	ds.PanicsRecovered = int(r.panics.Load())
	ds.Batch = batch
	lg.Info("design run finished", "design", d.Name, "runs", d.N(),
		"sim_ms", float64(ds.SimTime.Microseconds())/1e3,
		"work_ms", float64(ds.SimWork.Microseconds())/1e3,
		"speedup", ds.Speedup())
	return ds, nil
}

// designRun is the shared state of one RunDesign call. Results land in a
// pre-sized slice (one slot per run, no index collisions), so the only
// state needing a lock is the first error.
type designRun struct {
	p    *Problem
	ctx  context.Context
	d    *doe.Design
	rows []map[ResponseID]float64

	work    atomic.Int64 // summed run (or chunk) durations, ns
	retries atomic.Int64 // attempts retried after transient faults
	panics  atomic.Int64 // panics recovered into errors

	abort chan struct{} // closed on the first error or cancellation
	once  sync.Once
	mu    sync.Mutex
	first error
}

// fail records the run's first error and signals the abort.
func (r *designRun) fail(err error) {
	r.mu.Lock()
	if r.first == nil {
		r.first = err
	}
	r.mu.Unlock()
	r.once.Do(func() { close(r.abort) })
}

func (r *designRun) cancelled() {
	r.fail(fmt.Errorf("core: design run aborted: %w", context.Cause(r.ctx)))
}

func (r *designRun) failed() bool {
	select {
	case <-r.abort:
		return true
	default:
		return false
	}
}

// aborted reports whether no new run may start. The abort channel closes
// asynchronously on cancellation (AfterFunc), so the context is checked
// directly too: cancellation stops the handout even when runs are answered
// instantly from the cache.
func (r *designRun) aborted() bool {
	if r.failed() {
		return true
	}
	if r.ctx.Err() != nil {
		r.cancelled()
		return true
	}
	return false
}

// each hands out the indices 0..n-1 to a pool of up to workers goroutines
// and waits for them. No index is handed out after the run aborts.
func (r *designRun) each(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !r.aborted() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// runPoints is the per-point path: each of the given runs goes through the
// runner on its own under the problem's retry policy and per-run deadline.
func (r *designRun) runPoints(workers int, runs []int) {
	lg := obs.FromContext(r.ctx)
	r.each(workers, len(runs), func(n int) {
		i := runs[n]
		runStart := time.Now()
		resp, st, err := r.p.runWithRetry(r.ctx, i, r.d.Runs[i])
		runDur := time.Since(runStart)
		r.work.Add(int64(runDur))
		r.retries.Add(int64(st.retries))
		r.panics.Add(int64(st.panics))
		if err != nil {
			lg.Warn("sim run failed", "run", i, "attempts", st.attempts, "err", err.Error())
			r.fail(wrapRunErr(i, st, err))
			return
		}
		lg.Debug("sim run", "run", i, "sim_ms", float64(runDur.Microseconds())/1e3)
		r.rows[i] = resp
	})
}

// Subregion returns a refined copy of the problem whose factor ranges are
// shrunk to a fraction (scale) of the original, centred on the coded point
// centre and clamped to the original ranges — the sequential-RSM move
// applied after a lack-of-fit alarm or around a promising optimum.
func (p *Problem) Subregion(centre []float64, scale float64) (*Problem, error) {
	if len(centre) != len(p.Factors) {
		return nil, fmt.Errorf("core: centre has %d coordinates, problem has %d factors", len(centre), len(p.Factors))
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("core: subregion scale %g must be in (0, 1]", scale)
	}
	sub := *p
	sub.Factors = make([]doe.Factor, len(p.Factors))
	for i, f := range p.Factors {
		mid := f.Decode(centre[i])
		half := scale * (f.Max - f.Min) / 2
		lo, hi := mid-half, mid+half
		// Clamp to the original region, preserving the width when possible.
		if lo < f.Min {
			lo, hi = f.Min, math.Min(f.Min+2*half, f.Max)
		}
		if hi > f.Max {
			hi, lo = f.Max, math.Max(f.Max-2*half, f.Min)
		}
		sub.Factors[i] = doe.Factor{Name: f.Name, Min: lo, Max: hi, Unit: f.Unit}
	}
	return &sub, nil
}

// DesirabilityGoal pairs a response with its desirability shape and an
// optional weight (≤ 0 means 1).
type DesirabilityGoal struct {
	Response ResponseID
	Shape    opt.Desirability
	Weight   float64
}

// DesirabilityResult is a multi-response compromise design found on the
// surfaces and confirmed by one simulation.
type DesirabilityResult struct {
	Coded     []float64
	Natural   []float64
	Score     float64                // composite desirability predicted on the surfaces
	Confirmed float64                // composite desirability of the simulated responses
	Predicted map[ResponseID]float64 // per-response surface predictions
	Simulated map[ResponseID]float64 // per-response simulated values
	Evals     int
}

// OptimizeDesirability finds the design maximizing the Derringer–Suich
// composite desirability of several responses on the fitted surfaces
// (multi-start Nelder–Mead), then confirms it with one simulation.
func (s *Surfaces) OptimizeDesirability(ctx context.Context, goals []DesirabilityGoal, starts int, seed int64) (*DesirabilityResult, error) {
	if len(goals) == 0 {
		return nil, fmt.Errorf("core: need ≥1 desirability goal")
	}
	evals := make([]opt.Objective, len(goals))
	shapes := make([]opt.Desirability, len(goals))
	weights := make([]float64, len(goals))
	for i, g := range goals {
		fit, ok := s.Fits[g.Response]
		if !ok {
			return nil, fmt.Errorf("core: no surface for %q", g.Response)
		}
		evals[i] = fit.Predict
		shapes[i] = g.Shape
		weights[i] = g.Weight
	}
	comp, err := opt.NewComposite(evals, shapes, weights)
	if err != nil {
		return nil, err
	}
	best, totalEvals, err := opt.MultiStart(comp.Objective(), opt.NewBounds(len(s.Problem.Factors)), starts, seed, surfaceSearch)
	if err != nil {
		return nil, err
	}
	natural, err := doe.DecodeRun(s.Problem.Factors, best.X)
	if err != nil {
		return nil, err
	}
	res := &DesirabilityResult{
		Coded:     best.X,
		Natural:   natural,
		Score:     comp.Score(best.X),
		Predicted: make(map[ResponseID]float64, len(goals)),
		Simulated: make(map[ResponseID]float64, len(goals)),
		Evals:     totalEvals,
	}
	sim, err := s.Problem.ResponsesAt(ctx, best.X)
	if err != nil {
		return nil, err
	}
	// Confirmed composite: the same shapes applied to simulated values.
	simEvals := make([]opt.Objective, len(goals))
	for i, g := range goals {
		res.Predicted[g.Response] = s.Fits[g.Response].Predict(best.X)
		res.Simulated[g.Response] = sim[g.Response]
		v := sim[g.Response]
		simEvals[i] = func(x []float64) float64 { return v }
	}
	simComp, err := opt.NewComposite(simEvals, shapes, weights)
	if err != nil {
		return nil, err
	}
	res.Confirmed = simComp.Score(best.X)
	return res, nil
}

// Package core implements the paper's contribution: the DoE-based design
// flow for energy management in sensor nodes powered by tunable energy
// harvesters.
//
// The flow is:
//
//  1. Define a Problem: design factors (natural ranges), the mapping from
//     factor values to a complete sim.Design + excitation scenario, and the
//     performance indicators (responses) of interest.
//  2. Pick a DoE plan (internal/doe) and run the full-system simulator at
//     its design points — the "moderate number of simulations".
//  3. Fit one response surface per indicator. Build runs steps 2 and 3 as
//     one pipeline, for fixed and adaptive plans alike.
//  4. Explore trade-offs and optimize on the surfaces practically
//     instantly; confirm the chosen design with a single simulation
//     (Surfaces.Optimize, Surfaces.Validate).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/doe"
	"repro/internal/explore"
	"repro/internal/node"
	"repro/internal/opt"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/vibration"
)

// ResponseID names a performance indicator extracted from a simulation.
type ResponseID string

// The performance indicators the toolkit models.
const (
	RespHarvestedPower ResponseID = "avg_harvested_power_uW" // µW
	RespStoredEnergy   ResponseID = "stored_energy_J"        // J at horizon
	RespFinalStoreV    ResponseID = "final_store_V"          // V
	RespPackets        ResponseID = "packets"                // count
	RespUptime         ResponseID = "uptime_frac"            // 0–1
	RespFirstTx        ResponseID = "time_to_first_tx_s"     // s
	RespNetMargin      ResponseID = "net_energy_margin_mJ"   // mJ
	RespTuneEnergy     ResponseID = "tune_energy_mJ"         // mJ
)

// AllResponses lists every supported indicator.
func AllResponses() []ResponseID {
	return []ResponseID{
		RespHarvestedPower, RespStoredEnergy, RespFinalStoreV, RespPackets,
		RespUptime, RespFirstTx, RespNetMargin, RespTuneEnergy,
	}
}

// Extract reads the indicator from a simulation result.
func Extract(id ResponseID, r *sim.Result, horizon float64) (float64, error) {
	switch id {
	case RespHarvestedPower:
		return r.AvgHarvestedPower * 1e6, nil
	case RespStoredEnergy:
		return r.StoredEnergyEnd, nil
	case RespFinalStoreV:
		return r.FinalStoreV, nil
	case RespPackets:
		return float64(r.Node.Packets), nil
	case RespUptime:
		return r.UptimeFraction, nil
	case RespFirstTx:
		if math.IsNaN(r.Node.FirstTxTime) {
			return horizon, nil // censored at the horizon: never transmitted
		}
		return r.Node.FirstTxTime, nil
	case RespNetMargin:
		return r.NetEnergyMargin * 1e3, nil
	case RespTuneEnergy:
		return r.TuneEnergy * 1e3, nil
	}
	return 0, fmt.Errorf("core: unknown response %q", id)
}

// Scenario is a fully instantiated design point: the system design plus
// the excitation it will face.
type Scenario struct {
	Design sim.Design
	Source vibration.Source
}

// Problem defines the design space the flow explores.
type Problem struct {
	Factors   []doe.Factor
	Responses []ResponseID
	// Build maps natural factor values to a concrete scenario.
	Build func(natural []float64) (Scenario, error)
	// Horizon and step sizes of each simulation run.
	Horizon float64
	DtSlow  float64
	// Engine runs one simulation; defaults to sim.RunFast.
	Engine func(sim.Design, sim.Config) (*sim.Result, error)
	// EngineName identifies Engine for content-addressed caching. It is
	// implied for the default engine (EngineFast); a custom Engine with no
	// name bypasses the cache, since a closure cannot be fingerprinted.
	EngineName string
	// Runner executes simulations, by default through the process-wide
	// simulation cache (DefaultRunner). Set simcache.Direct{} to force
	// every run, or a dedicated *simcache.Cache for isolated caching.
	Runner simcache.Runner
	// Retry is the per-run retry policy of design runs: transient
	// failures (injected faults, recovered panics, per-run timeouts)
	// back off and retry. Zero value = one attempt.
	Retry RetryPolicy
	// RunTimeout, when positive, is the per-run deadline: a simulation
	// exceeding it is abandoned with a retryable *RunTimeoutError
	// instead of pinning its worker forever.
	RunTimeout time.Duration
}

// Engine names understood by the standard problems.
const (
	EngineFast      = "fast"      // sim.RunFast (linearized state-space)
	EngineReference = "reference" // sim.RunReference (Newton–Raphson)
)

// DefaultRunner is the simulation runner used by Problems that don't set
// their own: a shared in-memory cache. Replace with simcache.Direct{} to
// disable caching process-wide.
var DefaultRunner simcache.Runner = simcache.New(simcache.Options{})

// Validate checks the problem definition.
func (p *Problem) Validate() error {
	if len(p.Factors) == 0 {
		return fmt.Errorf("core: problem needs ≥1 factor")
	}
	for _, f := range p.Factors {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	if len(p.Responses) == 0 {
		return fmt.Errorf("core: problem needs ≥1 response")
	}
	if p.Build == nil {
		return fmt.Errorf("core: problem needs a Build function")
	}
	if p.Horizon <= 0 {
		return fmt.Errorf("core: horizon %g must be positive", p.Horizon)
	}
	return nil
}

func (p *Problem) engine() func(sim.Design, sim.Config) (*sim.Result, error) {
	if p.Engine != nil {
		return p.Engine
	}
	return sim.RunFast
}

// engineName returns the cache identity of the problem's engine; empty
// means "unnameable" (a custom Engine without an EngineName) and disables
// caching for this problem.
func (p *Problem) engineName() string {
	if p.EngineName != "" {
		return p.EngineName
	}
	if p.Engine == nil {
		return EngineFast
	}
	return ""
}

// runSim executes one simulation through the problem's Runner (the shared
// cache by default). ctx carries cancellation and the observability trace
// (internal/obs) down into the runner. Results may be served from the
// cache and must be treated as immutable by callers.
func (p *Problem) runSim(ctx context.Context, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	name := p.engineName()
	if name == "" {
		return p.engine()(d, cfg)
	}
	r := p.Runner
	if r == nil {
		r = DefaultRunner
	}
	return r.Run(ctx, name, p.engine(), d, cfg)
}

// request resolves a coded point to its concrete simulation request: the
// decoded factors through Build, under the problem's horizon and step.
func (p *Problem) request(coded []float64) (sim.Design, sim.Config, error) {
	natural, err := doe.DecodeRun(p.Factors, coded)
	if err != nil {
		return sim.Design{}, sim.Config{}, err
	}
	sc, err := p.Build(natural)
	if err != nil {
		return sim.Design{}, sim.Config{}, err
	}
	return sc.Design, sim.Config{Horizon: p.Horizon, DtSlow: p.DtSlow, Source: sc.Source}, nil
}

// SimulateCoded runs one simulation at a coded design point and returns
// the raw result. ctx carries the caller's cancellation and trace down to
// the runner.
func (p *Problem) SimulateCoded(ctx context.Context, coded []float64) (*sim.Result, error) {
	d, cfg, err := p.request(coded)
	if err != nil {
		return nil, err
	}
	return p.runSim(ctx, d, cfg)
}

// ResponsesAt runs one simulation at a coded point and extracts every
// problem response, threading cancellation and the observability trace
// through to the simulation runner. Extracted responses are checked for
// numeric validity: a NaN or ±Inf value (a stiff solver corner, an
// injected fault) is rejected with a typed *NumericError before it can
// poison an RSM fit.
func (p *Problem) ResponsesAt(ctx context.Context, coded []float64) (map[ResponseID]float64, error) {
	r, err := p.SimulateCoded(ctx, coded)
	if err != nil {
		return nil, err
	}
	return p.responses(r)
}

// responses extracts every problem response from a result, rejecting a
// non-finite value with a *NumericError.
func (p *Problem) responses(r *sim.Result) (map[ResponseID]float64, error) {
	out := make(map[ResponseID]float64, len(p.Responses))
	for _, id := range p.Responses {
		v, err := Extract(id, r, p.Horizon)
		if err != nil {
			return nil, err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, &NumericError{Response: id, Value: v}
		}
		out[id] = v
	}
	return out, nil
}

// Dataset holds the simulated responses at every design point.
type Dataset struct {
	Design *doe.Design
	Y      map[ResponseID][]float64
	// SimTime is the simulator wall-clock time, start to finish; an
	// adaptive build's is the sum over its rounds.
	SimTime time.Duration
	// SimWork is the sum of the individual run durations — under the
	// lockstep executor, of its run resolution and chunk durations. With
	// a serial runner it equals SimTime; with a worker pool the ratio
	// SimWork/SimTime is the achieved parallel speedup.
	SimWork time.Duration
	// Retries and PanicsRecovered count the fault-recovery events the
	// runs needed (see Problem.Retry): retried attempts after transient
	// failures, and engine panics recovered into errors.
	Retries         int
	PanicsRecovered int
	// Batch carries the lockstep executor's statistics when the runs went
	// through it (see Problem.RunDesign); nil on the per-point path.
	Batch *BatchStats
}

// Speedup returns the achieved parallel speedup SimWork/SimTime
// (1 for a serial run; 0 when timings were not recorded).
func (ds *Dataset) Speedup() float64 {
	if ds.SimTime <= 0 || ds.SimWork <= 0 {
		return 0
	}
	return float64(ds.SimWork) / float64(ds.SimTime)
}

// Surfaces is the set of fitted response surfaces — the captured design
// space.
type Surfaces struct {
	Problem *Problem
	Model   rsm.Model
	Fits    map[ResponseID]*rsm.Fit
	FitTime time.Duration
}

// BuildSurfaces fits the model to every response in the dataset. Every
// response is observed on the same design, so the design is factored once
// (one rsm.Basis) and each response costs one least-squares solve.
func (p *Problem) BuildSurfaces(ds *Dataset, model rsm.Model) (*Surfaces, error) {
	if model.K != len(p.Factors) {
		return nil, fmt.Errorf("core: model has %d factors, problem has %d", model.K, len(p.Factors))
	}
	s := &Surfaces{Problem: p, Model: model, Fits: make(map[ResponseID]*rsm.Fit, len(p.Responses))}
	start := time.Now()
	// A design that cannot identify the model fails every response alike;
	// it is reported at the first one.
	basis, berr := rsm.NewBasis(model, ds.Design.Runs)
	for _, id := range p.Responses {
		y, ok := ds.Y[id]
		if !ok {
			return nil, fmt.Errorf("core: dataset lacks response %q", id)
		}
		err := berr
		var fit *rsm.Fit
		if err == nil {
			fit, err = basis.Fit(y)
		}
		if err != nil {
			return nil, fmt.Errorf("core: fitting %q: %w", id, err)
		}
		s.Fits[id] = fit
	}
	s.FitTime = time.Since(start)
	return s, nil
}

// Predict evaluates the fitted surface of a response at a coded point.
func (s *Surfaces) Predict(id ResponseID, coded []float64) (float64, error) {
	fit, ok := s.Fits[id]
	if !ok {
		return 0, fmt.Errorf("core: no surface for %q", id)
	}
	return fit.Predict(coded), nil
}

// Evaluator adapts a surface to the exploration toolkit.
func (s *Surfaces) Evaluator(id ResponseID) (explore.Evaluator, error) {
	fit, ok := s.Fits[id]
	if !ok {
		return nil, fmt.Errorf("core: no surface for %q", id)
	}
	return fit.Predict, nil
}

// SurfaceOptimum is the best point a multi-start search found on one
// fitted surface.
type SurfaceOptimum struct {
	Coded     []float64
	Natural   []float64
	Predicted float64 // surface prediction at the optimum
	Evals     int     // surface evaluations spent by the search, all starts together
}

// OptimizeResult is a surface optimum confirmed by one simulation.
type OptimizeResult struct {
	SurfaceOptimum
	Confirmed float64 // simulated value at the optimum (the one-run check)
	RelError  float64 // |pred − conf| / max(|conf|, tiny)
}

// surfaceSearch is the Nelder–Mead budget of every start of a surface
// optimization.
var surfaceSearch = opt.NelderMeadConfig{MaxIters: 400}

// optimum is the one surface optimization: multi-start Nelder–Mead over
// the coded box of factors, minimizing pred, or maximizing it when
// maximize is set.
func optimum(factors []doe.Factor, pred opt.Objective, maximize bool, starts int, seed int64) (*SurfaceOptimum, error) {
	obj := pred
	if maximize {
		obj = opt.Maximize(pred)
	}
	best, evals, err := opt.MultiStart(obj, opt.NewBounds(len(factors)), starts, seed, surfaceSearch)
	if err != nil {
		return nil, err
	}
	natural, err := doe.DecodeRun(factors, best.X)
	if err != nil {
		return nil, err
	}
	return &SurfaceOptimum{Coded: best.X, Natural: natural, Predicted: pred(best.X), Evals: evals}, nil
}

// Optimize maximizes (or minimizes) a response on its surface with
// multi-start Nelder–Mead, then confirms the winner with a single
// simulation — the flow's final verification step.
func (s *Surfaces) Optimize(ctx context.Context, id ResponseID, maximize bool, starts int, seed int64) (*OptimizeResult, error) {
	fit, ok := s.Fits[id]
	if !ok {
		return nil, fmt.Errorf("core: no surface for %q", id)
	}
	best, err := optimum(s.Problem.Factors, fit.Predict, maximize, starts, seed)
	if err != nil {
		return nil, err
	}
	resp, err := s.Problem.ResponsesAt(ctx, best.Coded)
	if err != nil {
		return nil, err
	}
	conf := resp[id]
	return &OptimizeResult{
		SurfaceOptimum: *best,
		Confirmed:      conf,
		RelError:       math.Abs(best.Predicted-conf) / math.Max(math.Abs(conf), 1e-12),
	}, nil
}

// ValidationRow summarizes RSM accuracy for one response.
type ValidationRow struct {
	Response   ResponseID
	MeanAbsErr float64 // mean |pred − sim|
	MaxAbsErr  float64
	MeanRelErr float64 // relative to the simulated range
	R2         float64 // of the fit itself
}

// ValidationReport compares surface predictions against fresh simulations
// at random coded points.
type ValidationReport struct {
	Rows    []ValidationRow
	N       int
	SimTime time.Duration // total simulation time for the check runs
	RSMTime time.Duration // total surface-evaluation time for the same points
}

// ErrValidationAborted marks a validation whose context ended before all
// its points were simulated.
var ErrValidationAborted = errors.New("validation aborted")

// Validate draws n uniform random coded points, simulates each, and
// compares every response surface's prediction against the simulation —
// reproduction table R-T3's generator.
func (s *Surfaces) Validate(ctx context.Context, n int, seed int64) (*ValidationReport, error) {
	checks := make([]surfaceCheck, len(s.Problem.Responses))
	for i, id := range s.Problem.Responses {
		fit := s.Fits[id]
		checks[i] = surfaceCheck{id: id, predict: fit.Predict, r2: fit.R2}
	}
	return s.Problem.validate(ctx, checks, n, seed)
}

// surfaceCheck is one response a validation scores: its surface and the
// R² of its fit.
type surfaceCheck struct {
	id      ResponseID
	predict func(coded []float64) float64
	r2      float64
}

// validate is the one validation loop: it draws n uniform random coded
// points from seed, simulates each on p, and scores every check's surface
// against the simulated response. A context that ends stops it before the
// next simulation with ErrValidationAborted; a failed simulation is
// reported with its point index.
func (p *Problem) validate(ctx context.Context, checks []surfaceCheck, n int, seed int64) (*ValidationReport, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need ≥1 validation point, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, len(p.Factors))
	sums := make([]float64, len(checks))
	maxs := make([]float64, len(checks))
	lo := make([]float64, len(checks))
	hi := make([]float64, len(checks))
	rep := &ValidationReport{N: n}
	for i := 0; i < n; i++ {
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrValidationAborted, err)
		}
		start := time.Now()
		sim, err := p.ResponsesAt(ctx, x)
		rep.SimTime += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("simulation %d failed: %w", i, err)
		}
		start = time.Now()
		for c, chk := range checks {
			y := sim[chk.id]
			e := math.Abs(chk.predict(x) - y)
			sums[c] += e
			if e > maxs[c] {
				maxs[c] = e
			}
			if i == 0 || y < lo[c] {
				lo[c] = y
			}
			if i == 0 || y > hi[c] {
				hi[c] = y
			}
		}
		rep.RSMTime += time.Since(start)
	}
	for c, chk := range checks {
		span := hi[c] - lo[c]
		if span <= 0 {
			span = math.Max(math.Abs(hi[c]), 1e-12)
		}
		rep.Rows = append(rep.Rows, ValidationRow{
			Response:   chk.id,
			MeanAbsErr: sums[c] / float64(n),
			MaxAbsErr:  maxs[c],
			MeanRelErr: sums[c] / float64(n) / span,
			R2:         chk.r2,
		})
	}
	return rep, nil
}

// StandardProblem returns the four-factor design problem used throughout
// the examples, benchmarks and reproduction experiments: measurement
// period, supercapacitor size, transmit-threshold voltage and excitation
// frequency offset, with the responses of DESIGN.md §4. excite sets the
// nominal excitation amplitude (m/s²); horizon the per-run simulated
// duration (s).
func StandardProblem(excite, horizon float64) *Problem {
	base := sim.DefaultDesign()
	f0 := base.Harv.ResonantFreq(base.Harv.GapMax)
	return &Problem{
		Factors: []doe.Factor{
			{Name: "period", Min: 2, Max: 20, Unit: "s"},
			// 10–100 mF: sized so the charge/discharge time constant is
			// commensurate with the simulated horizon — a 1 F store barely
			// moves in minutes, hiding every threshold effect.
			{Name: "supercap", Min: 0.01, Max: 0.1, Unit: "F"},
			{Name: "vth", Min: 2.6, Max: 3.6, Unit: "V"},
			// Residual mistuning after the tuner locks: bounded by its
			// ±0.5 Hz deadband, which is also the loaded half-power
			// bandwidth (f0/Q ≈ 45/90 Hz). Larger mistuning collapses the
			// resonance response to a spike no polynomial can follow —
			// chasing the dominant frequency is the tuner's job, not a
			// static design factor.
			{Name: "freq_off", Min: -0.5, Max: 0.5, Unit: "Hz"},
		},
		Responses: []ResponseID{
			RespHarvestedPower, RespStoredEnergy, RespPackets,
			RespUptime, RespNetMargin, RespFirstTx,
		},
		Horizon: horizon,
		Build: func(nat []float64) (Scenario, error) {
			d := sim.DefaultDesign()
			// Start the store below the pump's open-circuit equilibrium
			// (≈3.9 V at nominal excitation) and inside the threshold range so
			// most designs transmit from the start while the harvest/consume
			// balance — and hence every response — depends on the factors.
			d.InitialStoreV = 3.3
			d.Node.Period = nat[0]
			d.Store.C = nat[1]
			d.Policy = node.ThresholdPolicy{VThreshold: nat[2]}
			src := vibration.Sine{Amplitude: excite, Freq: f0 + nat[3]}
			return Scenario{Design: d, Source: src}, nil
		},
	}
}

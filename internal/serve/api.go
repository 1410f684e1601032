// Package serve is the surrogate-serving daemon behind cmd/ehdoed: a
// thread-safe registry of fitted response-surface sets, a JSON API that
// answers predictions, sweeps, optimizations and validations on them
// "practically instantly", and an async job runner that executes the
// expensive DoE builds in the background and hot-swaps the finished
// surfaces into the registry.
//
// The package splits the paper's flow along its natural production seam:
// building surfaces is the training side (slow, simulator-bound,
// parallelized, queued), serving them is the inference side (fast,
// allocation-free batch evaluation, safe under heavy concurrency).
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/apiclient"
	"repro/internal/cluster"
	"repro/internal/core"
)

// HealthResponse is the GET /healthz body. Status is "ok" while serving
// and "draining" (with HTTP 503) once shutdown has begun. QueueDepth and
// QueueCap report build-queue pressure, so load balancers and operators
// can see saturation coming before submits start bouncing.
type HealthResponse struct {
	Status        string  `json:"status"`
	Models        int     `json:"models"`
	UptimeSeconds float64 `json:"uptime_s"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
}

// ModelsResponse is the GET /v1/models body.
type ModelsResponse struct {
	Models []ModelSummary `json:"models"`
}

// BuildAccepted is the 202 body of POST /v1/build: the freshly queued job.
type BuildAccepted struct {
	Job JobView `json:"job"`
}

// FactorView is the JSON shape of a design factor.
type FactorView struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Unit string  `json:"unit,omitempty"`
}

// ModelSummary is the list-view of a registered surface set.
type ModelSummary struct {
	Name      string   `json:"name"`
	Design    string   `json:"design"`
	Runs      int      `json:"runs"`
	Horizon   float64  `json:"horizon_s"`
	Responses []string `json:"responses"`
}

// ModelDetail adds the factor ranges and fit diagnostics. PRESS and R2Pred
// are the leave-one-out cross-validation diagnostics; models saved by older
// releases lack them and omit the maps.
type ModelDetail struct {
	ModelSummary
	Factors []FactorView       `json:"factors"`
	R2      map[string]float64 `json:"r2"`
	RMSE    map[string]float64 `json:"rmse"`
	PRESS   map[string]float64 `json:"press,omitempty"`
	R2Pred  map[string]float64 `json:"r2_pred,omitempty"`
	HasData bool               `json:"has_data"`
}

func summarize(name string, ss *core.SavedSurfaces) ModelSummary {
	out := ModelSummary{
		Name:    name,
		Design:  ss.DesignName,
		Runs:    ss.Runs,
		Horizon: ss.Horizon,
	}
	for _, id := range ss.Responses() {
		out.Responses = append(out.Responses, string(id))
	}
	return out
}

func detail(name string, ss *core.SavedSurfaces) ModelDetail {
	d := ModelDetail{
		ModelSummary: summarize(name, ss),
		R2:           make(map[string]float64, len(ss.R2)),
		RMSE:         make(map[string]float64, len(ss.RMSE)),
		HasData:      ss.HasData(),
	}
	for _, f := range ss.Factors {
		d.Factors = append(d.Factors, FactorView{Name: f.Name, Min: f.Min, Max: f.Max, Unit: f.Unit})
	}
	for id, v := range ss.R2 {
		d.R2[string(id)] = v
	}
	for id, v := range ss.RMSE {
		d.RMSE[string(id)] = v
	}
	if len(ss.PRESS) > 0 {
		d.PRESS = make(map[string]float64, len(ss.PRESS))
		for id, v := range ss.PRESS {
			d.PRESS[string(id)] = v
		}
	}
	if len(ss.R2Pred) > 0 {
		d.R2Pred = make(map[string]float64, len(ss.R2Pred))
		for id, v := range ss.R2Pred {
			d.R2Pred[string(id)] = v
		}
	}
	return d
}

// PredictRequest asks for surface predictions at one point or a batch of
// points, in natural (default) or coded units.
type PredictRequest struct {
	Model string `json:"model"`
	// Units is "natural" (default) or "coded".
	Units  string      `json:"units,omitempty"`
	Point  []float64   `json:"point,omitempty"`
	Points [][]float64 `json:"points,omitempty"`
	// Responses restricts the evaluated responses; empty means all.
	Responses []string `json:"responses,omitempty"`
}

// PointPrediction is every requested response evaluated at one point.
type PointPrediction struct {
	Point  []float64          `json:"point"`
	Values map[string]float64 `json:"values"`
}

// PredictResponse carries per-point results in request order.
type PredictResponse struct {
	Model   string            `json:"model"`
	Units   string            `json:"units"`
	Results []PointPrediction `json:"results"`
}

// SweepRequest asks for a 1-D sweep of one response over one factor's full
// natural range, holding the other factors at the given values (natural
// units; unset factors sit at their range midpoint).
type SweepRequest struct {
	Model    string             `json:"model"`
	Response string             `json:"response"`
	Factor   string             `json:"factor"`
	Points   int                `json:"points,omitempty"`
	At       map[string]float64 `json:"at,omitempty"`
}

// SweepResponse is the sampled curve in natural units.
type SweepResponse struct {
	Model    string    `json:"model"`
	Response string    `json:"response"`
	Factor   string    `json:"factor"`
	Unit     string    `json:"unit,omitempty"`
	X        []float64 `json:"x"`
	Y        []float64 `json:"y"`
}

// OptimizeRequest asks for the surface optimum of one response
// (multi-start Nelder–Mead in the coded box).
type OptimizeRequest struct {
	Model    string `json:"model"`
	Response string `json:"response"`
	Minimize bool   `json:"minimize,omitempty"`
	Starts   int    `json:"starts,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// OptimizeResponse reports the optimum in both unit systems.
type OptimizeResponse struct {
	Model     string    `json:"model"`
	Response  string    `json:"response"`
	Minimize  bool      `json:"minimize"`
	Natural   []float64 `json:"natural"`
	Coded     []float64 `json:"coded"`
	Predicted float64   `json:"predicted"`
	Evals     int       `json:"evals"`
}

// ValidateRequest asks for confirming simulations: n fresh random points
// simulated and compared against the surface predictions. Excite and
// Horizon make the simulated problem explicit; omitted they default to
// 0.6 and the model's horizon.
type ValidateRequest struct {
	Model   string  `json:"model"`
	N       int     `json:"n,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Excite  float64 `json:"excite,omitempty"`
	Horizon float64 `json:"horizon_s,omitempty"`
	// Engine selects the simulation engine for the confirming runs:
	// "fast" (default; "batch" is an accepted synonym) or "reference" (the
	// dense-step oracle). Unknown values are rejected with code bad_field.
	Engine string `json:"engine,omitempty"`
}

// ValidateRow is the accuracy summary of one response. PRESS and R2Pred
// echo the model's training leave-one-out diagnostics, so the fresh-point
// errors can be read against the generalization the fit predicted for
// itself; models saved by older releases lack them and report zero.
type ValidateRow struct {
	Response   string  `json:"response"`
	MeanAbsErr float64 `json:"mean_abs_err"`
	MaxAbsErr  float64 `json:"max_abs_err"`
	PRESS      float64 `json:"press,omitempty"`
	R2Pred     float64 `json:"r2_pred,omitempty"`
}

// ValidateResponse reports per-response surface accuracy at the fresh
// points, plus the simulation cost that buying this confirmation took.
// Engine echoes the engine that actually ran the confirming simulations.
type ValidateResponse struct {
	Model     string        `json:"model"`
	N         int           `json:"n"`
	Engine    string        `json:"engine"`
	Rows      []ValidateRow `json:"rows"`
	SimMillis float64       `json:"sim_ms"`
}

// BuildRequest enqueues an asynchronous DoE build: run the designed
// experiment on the simulator, fit the surfaces, and register them under
// Model. Design names follow core.DesignNames (default "ccf").
type BuildRequest struct {
	Model string `json:"model"`
	// Strategy selects how the experiment is sized: "fixed" (default)
	// simulates the whole named design up front — bit-identical to previous
	// releases — while "adaptive" grows a D-optimal design sequentially and
	// stops as soon as the surfaces converge, typically well under the fixed
	// design's run count. Adaptive builds choose their own design, so
	// "design" and "runs" must be left unset. Unknown values are rejected
	// with code bad_field.
	Strategy string  `json:"strategy,omitempty"`
	Design   string  `json:"design,omitempty"`
	Runs     int     `json:"runs,omitempty"`
	Horizon  float64 `json:"horizon_s,omitempty"`
	// Excite is the excitation amplitude (default 0.6).
	Excite  float64 `json:"excite,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	Workers int     `json:"workers,omitempty"`
	// Pool selects where the design points run: "local" (default) uses the
	// in-process worker pool sized by Workers, "cluster" shards the points
	// across the registered simnode worker fleet.
	Pool string `json:"pool,omitempty"`
	// Engine selects the simulation engine for the build's design runs:
	// "fast" (default; "batch" is an accepted synonym) or "reference".
	// Local fast builds run through the lockstep executor either way. The
	// cluster pool rejects "reference". Unknown values are rejected with
	// code bad_field.
	Engine string `json:"engine,omitempty"`
	// TimeoutS bounds the whole build in seconds; 0 means the server
	// default, and the server's configured maximum always caps it.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// Values of BuildRequest.Pool.
const (
	PoolLocal   = "local"
	PoolCluster = "cluster"
)

// Values of BuildRequest.Engine and ValidateRequest.Engine. Fast and
// reference mirror the engine names internal/core understands. Batch is an
// accepted synonym of fast, kept for clients that still send it: every
// local fast build runs through the lockstep executor anyway, and job and
// validate views echo the value the client sent.
const (
	EngineFast      = core.EngineFast
	EngineBatch     = "batch"
	EngineReference = core.EngineReference
)

// Values of BuildRequest.Strategy, mirroring the strategy names
// internal/core understands.
const (
	StrategyFixed    = core.StrategyFixed
	StrategyAdaptive = core.StrategyAdaptive
)

// errBadEngine marks a request whose engine field names no known engine.
// The HTTP layer maps it to code bad_field — the same class as an unknown
// JSON field, since both are contract violations a client must fix.
var errBadEngine = errors.New("serve: unknown engine")

// errBadStrategy marks a request whose strategy field names no known build
// strategy; like errBadEngine it maps to code bad_field.
var errBadStrategy = errors.New("serve: unknown strategy")

// normalizeStrategy validates a strategy selection and resolves the default.
func normalizeStrategy(strategy string) (string, error) {
	switch strategy {
	case "":
		return StrategyFixed, nil
	case StrategyFixed, StrategyAdaptive:
		return strategy, nil
	}
	return "", fmt.Errorf("%w %q (want %q or %q)",
		errBadStrategy, strategy, StrategyFixed, StrategyAdaptive)
}

// normalizeEngine validates an engine selection and resolves the default.
func normalizeEngine(engine string) (string, error) {
	switch engine {
	case "":
		return EngineFast, nil
	case EngineFast, EngineBatch, EngineReference:
		return engine, nil
	}
	return "", fmt.Errorf("%w %q (want %q, %q or %q)",
		errBadEngine, engine, EngineFast, EngineBatch, EngineReference)
}

// JobView is the JSON snapshot of a build job. TraceID is the request ID
// of the /v1/build call that enqueued it — the same ID threads the access
// log, the job transition logs and the simulation-run logs.
type JobView struct {
	ID         string             `json:"id"`
	TraceID    string             `json:"trace_id,omitempty"`
	Model      string             `json:"model"`
	Strategy   string             `json:"strategy,omitempty"`
	Design     string             `json:"design"`
	State      string             `json:"state"`
	Runs       int                `json:"runs,omitempty"`
	Horizon    float64            `json:"horizon_s"`
	Excite     float64            `json:"excite"`
	Seed       int64              `json:"seed"`
	Workers    int                `json:"workers,omitempty"`
	Pool       string             `json:"pool,omitempty"`
	Engine     string             `json:"engine,omitempty"`
	TimeoutS   float64            `json:"timeout_s,omitempty"`
	Error      string             `json:"error,omitempty"`
	ErrorCode  string             `json:"error_code,omitempty"`
	EnqueuedAt string             `json:"enqueued_at,omitempty"`
	StartedAt  string             `json:"started_at,omitempty"`
	FinishedAt string             `json:"finished_at,omitempty"`
	SimMillis  float64            `json:"sim_ms,omitempty"`
	Speedup    float64            `json:"speedup,omitempty"`
	R2         map[string]float64 `json:"r2,omitempty"`
	// Retries and PanicsRecovered count the fault-recovery events of the
	// build's design runs; populated for finished jobs, including failed
	// ones.
	Retries         int `json:"retries,omitempty"`
	PanicsRecovered int `json:"panics_recovered,omitempty"`
	// Batch carries the lockstep executor's statistics (lanes, chunks,
	// trajectories, cache peels, amortized rebuilds) of a local fast build.
	Batch *core.BatchStats `json:"batch,omitempty"`
	// Adaptive carries the sequential build's per-round convergence record
	// and point accounting when the build ran under the adaptive strategy;
	// populated for finished jobs, including failed ones.
	Adaptive *core.AdaptiveStats `json:"adaptive,omitempty"`
}

// JobsResponse is a page of job snapshots. NextAfter, when set, is the
// cursor for the next page (`?after=<id>`).
type JobsResponse struct {
	Jobs      []JobView `json:"jobs"`
	NextAfter string    `json:"next_after,omitempty"`
}

func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// errorBody is the uniform error payload: every non-2xx response carries a
// human-readable message plus a machine-readable code from the set below.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Machine-readable error codes carried by errorBody.Code.
const (
	codeInvalidRequest = apiclient.CodeInvalidRequest // malformed body, bad field values
	codeBadField       = apiclient.CodeBadField       // request carries an unknown field
	codeProtoMismatch  = cluster.CodeProtoMismatch    // cluster request speaks the wrong protocol version
	codeNotFound       = "not_found"                  // unknown model or job
	codeConflict       = "conflict"                   // request inconsistent with server state
	codeQueueFull      = "queue_full"                 // build queue at capacity
	codeOverloaded     = "overloaded"                 // admission control shed the request (429 + Retry-After)
	codeShuttingDown   = "shutting_down"              // server is draining
	codeClientClosed   = "client_closed"              // client disconnected mid-work
	codeNumericInvalid = "numeric_invalid"            // simulation produced NaN/Inf responses
	codeInternal       = "internal"                   // unexpected server-side failure
)

// Machine-readable codes carried by JobView.ErrorCode for failed or
// canceled jobs. Empty means a plain failure (validation, fit, or an
// unretryable simulation error).
const (
	jobCodeTimeout   = "timeout"         // build exceeded its per-job deadline
	jobCodePanic     = "panic"           // a simulation panic exhausted the retry budget
	jobCodeCanceled  = "canceled"        // server shutdown cancelled the job
	jobCodeNumeric   = "numeric_invalid" // a simulation produced NaN/Inf responses
	jobCodeNoWorkers = "no_workers"      // cluster build stalled with no live workers
)

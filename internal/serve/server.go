package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/apiclient"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/simcache"
)

// latencyBuckets are the cumulative-histogram upper bounds in seconds,
// spanning the sub-millisecond surrogate hot path up to multi-second
// simulation-backed endpoints. An implicit +Inf bucket follows.
var latencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// Config configures a Server.
type Config struct {
	// ModelsDir, when set, is loaded into the registry at startup.
	ModelsDir string
	// QueueCap bounds the build-job queue (default 8).
	QueueCap int
	// Problem instantiates the design problem builds and validations
	// simulate; nil means core.StandardProblem.
	Problem ProblemFactory
	// MaxBodyBytes caps request bodies (default 32 MiB — model uploads
	// embed the raw experiment).
	MaxBodyBytes int64
	// Cache memoizes the simulations behind builds and validations; nil
	// means a fresh in-memory cache (512 entries, no disk tier).
	Cache *simcache.Cache
	// Logger receives structured request, job and simulation logs; nil
	// discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the same
	// mux. Off by default: profiling endpoints expose internals.
	EnablePprof bool
	// JobTimeout bounds each build job: the default when a request sets no
	// timeout_s, and the cap when it does. <=0 means unbounded.
	JobTimeout time.Duration
	// Cluster tunes the worker-fleet coordinator (heartbeat and lease
	// timeouts, lease sizing, retry budgets). The zero value uses the
	// cluster package defaults; the coordinator is always mounted.
	Cluster cluster.Config
	// Load tunes admission control; the zero value enables it with the
	// defaults documented on LoadConfig.
	Load LoadConfig
}

// Server wires the registry, job manager and observability into an
// http.Handler. All metrics live in one obs.Registry; /metrics renders it
// and nothing else.
type Server struct {
	registry *Registry
	jobs     *JobManager
	coord    *cluster.Coordinator
	work     http.Handler // coord's work-protocol mux
	problem  ProblemFactory
	cache    *simcache.Cache
	maxBody  int64
	mux      *http.ServeMux
	started  time.Time
	log      *slog.Logger
	draining atomic.Bool

	reg     *obs.Registry
	reqs    *obs.CounterVec
	errs    *obs.CounterVec
	latency *obs.HistogramVec
	faults  *obs.FaultStats

	// Overload protection: per-endpoint admission limiters and their
	// instruments.
	loadCfg       LoadConfig
	limits        map[string]*load.Limiter
	admitted      *obs.CounterVec
	shed          *obs.CounterVec
	admissionWait *obs.HistogramVec
}

// New builds a server, loading any models found in cfg.ModelsDir.
func New(cfg Config) (*Server, error) {
	problem := cfg.Problem
	if problem == nil {
		problem = core.StandardProblem
	}
	cache := cfg.Cache
	if cache == nil {
		cache = simcache.New(simcache.Options{})
	}
	// Route every problem the factory makes through the server's cache,
	// unless the factory wired its own runner.
	cached := func(excite, horizon float64) *core.Problem {
		p := problem(excite, horizon)
		if p.Runner == nil {
			p.Runner = cache
		}
		return p
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Nop()
	}
	s := &Server{
		registry: NewRegistry(),
		problem:  cached,
		cache:    cache,
		maxBody:  maxBody,
		mux:      http.NewServeMux(),
		started:  time.Now(),
		log:      logger,
		reg:      obs.NewRegistry(),
		faults:   &obs.FaultStats{},
		loadCfg:  cfg.Load.withDefaults(),
	}
	s.initAdmission(s.loadCfg)
	s.reg.GaugeFunc("ehdoed_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	s.reqs = s.reg.CounterVec("ehdoed_requests_total", "Requests served, by endpoint.", "endpoint")
	s.errs = s.reg.CounterVec("ehdoed_request_errors_total", "Requests answered with status >= 400, by endpoint.", "endpoint")
	s.latency = s.reg.HistogramVec("ehdoed_request_latency_seconds", "Request latency, by endpoint.", "endpoint", latencyBuckets)
	s.reg.CounterFunc("ehdoed_run_retries_total",
		"Design-run attempts retried after transient simulation faults.",
		func() float64 { return float64(s.faults.Retries.Value()) })
	s.reg.CounterFunc("ehdoed_run_panics_recovered_total",
		"Simulation panics recovered into errors instead of crashing the process.",
		func() float64 { return float64(s.faults.Panics.Value()) })
	cache.RegisterMetrics(s.reg, "ehdoed_simcache")
	if cfg.ModelsDir != "" {
		if _, err := s.registry.LoadDir(cfg.ModelsDir); err != nil {
			return nil, err
		}
	}
	ccfg := cfg.Cluster
	if ccfg.Log == nil {
		ccfg.Log = logger
	}
	s.coord = cluster.NewCoordinator(ccfg)
	s.coord.RegisterMetrics(s.reg, "ehdoed_cluster")
	s.work = s.coord.Handler()
	s.jobs = NewJobManager(JobManagerConfig{
		Registry:   s.registry,
		Problem:    s.problem,
		QueueCap:   cfg.QueueCap,
		Log:        logger,
		JobTimeout: cfg.JobTimeout,
		Faults:     s.faults,
		Cluster:    s.coord,
		Metrics:    s.reg,
	})
	s.reg.GaugeFunc("ehdoed_queue_depth",
		"Build jobs waiting in the bounded queue behind the running one.",
		func() float64 { return float64(s.jobs.QueueDepth()) })
	s.routes()
	if cfg.EnablePprof {
		obs.MountPprof(s.mux)
	}
	return s, nil
}

// Registry exposes the model registry (for the CLI and tests).
func (s *Server) Registry() *Registry { return s.registry }

// Jobs exposes the job manager.
func (s *Server) Jobs() *JobManager { return s.jobs }

// Coordinator exposes the worker-fleet coordinator (for cmd/ehdoed and
// tests).
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's observability registry, so embedding
// programs can add their own instruments to the same /metrics page.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Shutdown drains the job runner: /healthz flips to draining, queued
// builds are cancelled, the in-flight one gets the grace period before its
// context is cancelled.
func (s *Server) Shutdown(grace time.Duration) {
	s.draining.Store(true)
	s.log.Info("server draining", "grace_s", grace.Seconds())
	// The coordinator drains first: outstanding leases are cancelled and
	// cluster builds fail fast with ErrDraining (classified as canceled),
	// while local builds still get the full grace period below.
	s.coord.Shutdown()
	s.jobs.Shutdown(grace)
}

func (s *Server) routes() {
	for _, ep := range s.endpoints() {
		h := ep.handler
		if lim, ok := s.limits[ep.Label]; ok {
			// Admission control sits inside instrument, so shed requests
			// still get trace IDs, metrics and an access-log line.
			h = s.admit(ep.Label, lim, h)
		}
		s.mux.HandleFunc(ep.Method+" "+ep.Path, s.instrument(ep.Label, h))
		if ep.Method == "PUT" && ep.Path == "/v1/models/{name}" {
			// Historical alias: POST uploads are accepted too.
			s.mux.HandleFunc("POST "+ep.Path, s.instrument(ep.Label, h))
		}
	}
}

// statusWriter captures the response status (and whether anything was
// written yet, so the recover path knows if a 500 can still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// instrument is the one middleware every endpoint passes through: it
// adopts the client's X-Request-ID (or mints a fresh "req-" ID), binds a
// trace-carrying logger into the request context, echoes the ID back,
// recovers handler panics into the uniform 500 envelope, records metrics
// and emits one structured access-log line. Metrics and the access log
// live in the defer so panicking requests are counted too.
func (s *Server) instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, id := obs.Annotate(r.Context(), s.log, "req-", r.Header.Get("X-Request-ID"))
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, by convention compared directly
					panic(rec)
				}
				obs.FromContext(ctx).Error("handler panicked",
					"endpoint", label, "panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, codeInternal, "internal server error")
				} else {
					// The response is already in flight; all we can do is
					// record the failure.
					sw.status = http.StatusInternalServerError
				}
			}
			dur := time.Since(start)
			s.reqs.With(label).Inc()
			if sw.status >= 400 {
				s.errs.With(label).Inc()
			}
			s.latency.With(label).Observe(dur.Seconds())
			obs.FromContext(ctx).Info("request",
				"method", r.Method, "path", r.URL.Path, "endpoint", label,
				"status", sw.status, "dur_ms", float64(dur.Microseconds())/1e3)
		}()
		h(sw, r.WithContext(ctx))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		Models:        s.registry.Len(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    s.jobs.QueueDepth(),
		QueueCap:      s.jobs.QueueCap(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.reg.Render())
}

// writeJSON renders v as compact JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError renders the uniform error payload: message plus machine-
// readable code.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// decodeJSON parses a bounded request body into a typed request struct
// under apiclient.DecodeRequest, the decode rule of every mount: unknown
// fields are rejected (code bad_field) so typos fail loudly instead of
// silently defaulting; malformed JSON and trailing data get
// invalid_request.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := readAll(w, r, s.maxBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "reading body: %v", err)
		return false
	}
	if err := apiclient.DecodeRequest(bytes.NewReader(body), v); err != nil {
		var de *apiclient.DecodeError
		errors.As(err, &de)
		writeError(w, http.StatusBadRequest, de.Code, "%v", err)
		return false
	}
	return true
}

// readAll slurps a bounded request body.
func readAll(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// model fetches the named model or answers 400/404.
func (s *Server) model(w http.ResponseWriter, name string) (*core.SavedSurfaces, bool) {
	if name == "" {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "missing model name")
		return nil, false
	}
	ss, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown model %q", name)
		return nil, false
	}
	return ss, true
}

package serve

import (
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/load"
	"repro/internal/obs"
)

// EndpointLimit bounds one endpoint class's concurrent work. Zero fields
// take the class defaults documented on LoadConfig.
type EndpointLimit struct {
	// MaxConcurrent requests are served at once; the next MaxQueue wait
	// up to MaxWait for a slot (never past their own deadline), and
	// everything beyond that is shed immediately with a typed 429.
	MaxConcurrent int
	MaxQueue      int
	MaxWait       time.Duration
}

// LoadConfig tunes the server's admission control. It is on by default:
// each synchronous model endpoint gets its own limiter, so a flood of
// expensive validations cannot starve the cheap surface reads and vice
// versa.
type LoadConfig struct {
	// Disable turns admission control off entirely.
	Disable bool
	// Surface bounds each of the surrogate-backed endpoints — predict,
	// sweep and optimize get one limiter each with these bounds.
	// Defaults: 4×GOMAXPROCS concurrent, 16×GOMAXPROCS queued, 250ms max
	// queue wait.
	Surface EndpointLimit
	// Validate bounds the only synchronous endpoint that touches the
	// simulator. Defaults: GOMAXPROCS concurrent, 2×GOMAXPROCS queued,
	// 2s max queue wait.
	Validate EndpointLimit
	// RetryAfter is the advisory backoff attached to shed responses
	// (default 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	procs := runtime.GOMAXPROCS(0)
	if c.Surface.MaxConcurrent <= 0 {
		c.Surface.MaxConcurrent = 4 * procs
	}
	if c.Surface.MaxQueue <= 0 {
		c.Surface.MaxQueue = 16 * procs
	}
	if c.Surface.MaxWait <= 0 {
		c.Surface.MaxWait = 250 * time.Millisecond
	}
	if c.Validate.MaxConcurrent <= 0 {
		c.Validate.MaxConcurrent = procs
	}
	if c.Validate.MaxQueue <= 0 {
		c.Validate.MaxQueue = 2 * procs
	}
	if c.Validate.MaxWait <= 0 {
		c.Validate.MaxWait = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// admissionWaitBuckets resolve the queued-wait histogram: sub-millisecond
// admissions through multi-second shed waits.
var admissionWaitBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5}

// initAdmission builds the per-endpoint limiters and their instruments.
func (s *Server) initAdmission(cfg LoadConfig) {
	s.admitted = s.reg.CounterVec("ehdoed_admission_admitted_total",
		"Requests admitted past the per-endpoint concurrency limiter.", "endpoint")
	s.shed = s.reg.CounterVec("ehdoed_admission_shed_total",
		"Requests shed by admission control (typed 429 with Retry-After).", "endpoint")
	s.admissionWait = s.reg.HistogramVec("ehdoed_admission_queued_wait_seconds",
		"Time requests spent queued for an admission slot, by endpoint (shed requests included).",
		"endpoint", admissionWaitBuckets)
	inflight := s.reg.GaugeVec("ehdoed_inflight",
		"Requests currently admitted and executing, by endpoint.", "endpoint")
	queued := s.reg.GaugeVec("ehdoed_admission_queue_depth",
		"Requests currently queued for an admission slot, by endpoint.", "endpoint")
	if cfg.Disable {
		return
	}
	s.limits = make(map[string]*load.Limiter)
	limitFor := func(label string, lim EndpointLimit) {
		s.limits[label] = load.NewLimiter(load.LimiterConfig{
			MaxConcurrent: lim.MaxConcurrent,
			MaxQueue:      lim.MaxQueue,
			MaxWait:       lim.MaxWait,
			RetryAfter:    cfg.RetryAfter,
			InflightGauge: inflight.With(label),
			QueueGauge:    queued.With(label),
		})
	}
	for _, label := range []string{"predict", "sweep", "optimize"} {
		limitFor(label, cfg.Surface)
	}
	limitFor("validate", cfg.Validate)
}

// admit is the admission-control middleware for one limited endpoint: it
// acquires a concurrency slot (queueing bounded and deadline-aware) or
// sheds the request with a typed 429 overloaded envelope carrying a
// Retry-After hint. Wait time is recorded for admitted AND shed requests,
// so the queued_wait histogram shows the full price of saturation.
func (s *Server) admit(label string, lim *load.Limiter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, waited, err := lim.Acquire(r.Context())
		s.admissionWait.With(label).Observe(waited.Seconds())
		if err != nil {
			s.shed.With(label).Inc()
			retry, reason := s.loadCfg.RetryAfter, "overloaded"
			if sh, ok := err.(*load.ShedError); ok {
				retry, reason = sh.RetryAfter, sh.Reason
			}
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			obs.FromContext(r.Context()).Warn("request shed",
				"endpoint", label, "reason", reason,
				"inflight", lim.Inflight(), "queued", lim.QueueDepth(),
				"waited_ms", float64(waited.Microseconds())/1e3)
			writeError(w, http.StatusTooManyRequests, codeOverloaded,
				"endpoint %s overloaded (%s); retry after %s", label, reason, retryAfterSeconds(retry)+"s")
			return
		}
		defer release()
		s.admitted.With(label).Inc()
		h(w, r)
	}
}

// retryAfterSeconds renders a backoff as the Retry-After header value:
// integer seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// Span names. Spans of one request or build share the X-Request-ID the
// benchmark sent, which the server adopts as its trace ID and threads into
// the job, the design runs and the fleet leases.
const (
	spanRequest   = "bench.request"   // client send → body read, one read request
	spanSubmit    = "bench.submit"    // client POST /v1/build round trip
	spanBuild     = "bench.build"     // submit → job finished_at
	spanQueueWait = "jobs.queue_wait" // job enqueued_at → started_at
	spanJobRun    = "jobs.run"        // job started_at → finished_at
	spanHandler   = "serve.handler"   // server handler, attr = route
	spanCacheRun  = "simcache.run"    // Runner.Run, attr = engine
	spanEngine    = "sim.engine"      // engine func inside a Runner.Run
	spanRPC       = "cluster.rpc"     // worker HTTP call, attr = path
)

const (
	// maxSpans bounds the spans kept in memory (about 100 bytes each);
	// later ones are counted, not kept.
	maxSpans      = 500_000
	traceIDHeader = "X-Request-ID"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while enabled; they are written out once,
// when the benchmark ends. Every seam below calls into the program's
// public API unchanged and only times the call.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	on      atomic.Bool
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// setOn starts or stops recording; a nil tracer stays off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// record keeps a span when tracing is enabled. id 0 mints one.
func (t *tracer) record(name string, id, parent uint64, trace, attr string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	t.keep(name, id, parent, trace, attr, start, end)
}

// keep stores a span whether or not recording is on: for spans derived
// after the measured region from what it recorded, such as job stages.
func (t *tracer) keep(name string, id, parent uint64, trace, attr string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{Name: name, ID: id, Parent: parent, Trace: trace, Attr: attr,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler times the server's root handler per request. The route label
// drops path parameters so spans group by endpoint.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(spanHandler, 0, 0, r.Header.Get(traceIDHeader), route(r.URL.Path), start, time.Now())
	})
}

// route maps a request path to its endpoint label: /v1/predict → predict,
// /v1/jobs/job-000001 → jobs, /v1/cluster/lease → cluster/lease.
func route(path string) string {
	p := strings.TrimPrefix(path, "/v1/")
	switch {
	case strings.HasPrefix(p, "cluster/"), strings.HasPrefix(p, "peer/"):
		return p
	case strings.HasPrefix(p, "jobs/"):
		return "jobs"
	case strings.HasPrefix(p, "models/"):
		return "models"
	}
	return p
}

// transport times every HTTP call a fleet worker makes: coordinator
// protocol calls and peer-cache fetches and pushes.
type transport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt transport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	tt.t.record(spanRPC, 0, 0, r.Header.Get(traceIDHeader), r.URL.Path, start, time.Now())
	return resp, err
}

// runner fronts a *simcache.Cache, timing each Run and the engine call
// inside it. It forwards Lookup and Insert too, so the batch prepass still
// peels cached points and publishes lane results through the cache.
type runner struct {
	t     *tracer
	cache *simcache.Cache
}

func (r runner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	id := r.t.newID()
	trace := obs.TraceID(ctx)
	timed := func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		start := time.Now()
		res, err := fn(d, cfg)
		r.t.record(spanEngine, 0, id, trace, "", start, time.Now())
		return res, err
	}
	start := time.Now()
	res, err := r.cache.Run(ctx, engine, timed, d, cfg)
	r.t.record(spanCacheRun, id, 0, trace, engine, start, time.Now())
	return res, err
}

func (r runner) Lookup(ctx context.Context, key, engine string) (*sim.Result, bool) {
	return r.cache.Lookup(ctx, key, engine)
}

func (r runner) Insert(key, engine string, res *sim.Result) { r.cache.Insert(key, engine, res) }

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// lockedBuffer is a goroutine-safe log sink: the handler goroutine and the
// build worker both write to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Lines() []map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(l.b.String(), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// msgsWithTrace returns the distinct msg values of every log line carrying
// the given trace ID.
func msgsWithTrace(lines []map[string]any, trace string) map[string]bool {
	got := map[string]bool{}
	for _, m := range lines {
		if m["trace"] == trace {
			got[m["msg"].(string)] = true
		}
	}
	return got
}

// TestTraceThreadsBuildEndToEnd is the tentpole acceptance test: one
// client-chosen request ID must appear in (1) the HTTP access-log line,
// (2) the build job's transition lines and (3) the simulation-run and
// cache lines of the same /v1/build call.
func TestTraceThreadsBuildEndToEnd(t *testing.T) {
	var buf lockedBuffer
	logger, err := obs.NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)
	close(release) // engine answers instantly

	// Name the test engine so its runs are cacheable: the same trace must
	// also cover the simcache decision lines.
	problem := func(amp, horizon float64) *core.Problem {
		p := blockingProblem(release, quit)(amp, horizon)
		p.EngineName = "e2e-blocking"
		return p
	}
	srv, ts := newTestServer(t, Config{
		Problem: problem,
		Logger:  logger,
	})

	const trace = "req-e2e-trace-test"
	body, _ := json.Marshal(BuildRequest{Model: "m", Design: "ccf", Horizon: 1})
	req, err := http.NewRequest("POST", ts.URL+"/v1/build", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != trace {
		t.Fatalf("X-Request-ID echoed %q, want %q", got, trace)
	}
	var acc BuildAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if acc.Job.TraceID != trace {
		t.Fatalf("job snapshot trace_id %q, want %q", acc.Job.TraceID, trace)
	}
	waitState(t, srv.Jobs(), acc.Job.ID, JobDone)

	msgs := msgsWithTrace(buf.Lines(), trace)
	for _, want := range []string{
		"request",            // access log (instrument middleware)
		"job enqueued",       // job transitions (JobManager)
		"job started",        //
		"job done",           //
		"design run started", // core.Problem.RunDesign
		"sim run",            // per-simulation debug line
		"simcache miss",      // cache decision under the same trace
	} {
		if !msgs[want] {
			t.Errorf("no %q log line under trace %q; got msgs %v", want, trace, msgs)
		}
	}
}

// TestRequestIDMintedWhenAbsent: without a client X-Request-ID the server
// mints one, echoes it, and logs the access line under it.
func TestRequestIDMintedWhenAbsent(t *testing.T) {
	var buf lockedBuffer
	logger, err := obs.NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Logger: logger})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !strings.HasPrefix(id, "req-") {
		t.Fatalf("minted request ID %q lacks req- prefix", id)
	}
	if msgs := msgsWithTrace(buf.Lines(), id); !msgs["request"] {
		t.Fatalf("no access-log line under minted ID %q", id)
	}
}

// TestMetricsRenderedByRegistry: /metrics is one registry render — all
// families present and globally name-sorted, which only holds when a
// single renderer produces the page.
func TestMetricsRenderedByRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	names := []string{
		"ehdoed_jobs_total",
		"ehdoed_request_errors_total",
		"ehdoed_request_latency_seconds",
		"ehdoed_requests_total",
		"ehdoed_simcache_entries",
		"ehdoed_simcache_hits_total",
		"ehdoed_uptime_seconds",
	}
	last := -1
	for _, n := range names {
		i := strings.Index(text, "# TYPE "+n+" ")
		if i < 0 {
			t.Fatalf("metrics page missing family %s:\n%s", n, text)
		}
		if i < last {
			t.Fatalf("family %s out of sorted order — page not rendered by one registry", n)
		}
		last = i
	}
}

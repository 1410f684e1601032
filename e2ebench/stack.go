package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/simcache"
)

// retry is the per-run retry policy ehdoed and simnode apply by default
// (-run-retries 2, -retry-base 50ms).
var retry = core.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond}

// stack is one in-process deployment: an ehdoed server on a loopback
// listener and a fleet of cluster workers running the real engine, each
// worker with its own simulation cache and peer-cache listener. It is
// wired the way cmd/ehdoed and cmd/simnode wire their defaults; tracing
// only wraps the seams (handler, runners, worker HTTP client).
type stack struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	cache   *simcache.Cache
	wcaches []*simcache.Cache
	stop    context.CancelFunc
	done    []chan error
	client  *http.Client // control traffic: builds, job polls, views
}

func newStack(workers int, poll time.Duration, tr *tracer) (*stack, error) {
	cache := simcache.New(simcache.Options{})
	problem := func(excite, horizon float64) *core.Problem {
		p := core.StandardProblem(excite, horizon)
		p.Retry = retry
		p.Runner = cache
		if tr != nil {
			p.Runner = runner{t: tr, cache: cache}
		}
		return p
	}
	srv, err := serve.New(serve.Config{
		Problem: problem,
		Cache:   cache,
		Cluster: cluster.Config{
			HeartbeatInterval: 2 * time.Second,
			LeaseTimeout:      60 * time.Second,
			LeasePoints:       4,
			PollInterval:      poll,
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(0)
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout: 60 * time.Second, IdleTimeout: 120 * time.Second}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed at close
	s := &stack{
		srv: srv, hs: hs, url: "http://" + ln.Addr().String(), cache: cache,
		client: newClient(),
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	for i := 0; i < workers; i++ {
		wc := simcache.New(simcache.Options{})
		var wr simcache.Runner = wc
		var hc *http.Client
		if tr != nil {
			wr = runner{t: tr, cache: wc}
			hc = &http.Client{Transport: transport{t: tr, base: http.DefaultTransport}}
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: s.url,
			HTTP:        hc,
			ID:          fmt.Sprintf("bench-w%d", i),
			Problem: func(excite, horizon float64) *core.Problem {
				p := core.StandardProblem(excite, horizon)
				p.Retry = retry
				return p
			},
			Runner:   wr,
			Cache:    wc,
			PeerAddr: "127.0.0.1:0",
		})
		if err != nil {
			s.close()
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		s.wcaches = append(s.wcaches, wc)
		s.done = append(s.done, done)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Coordinator().LiveWorkers() < workers {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("only %d of %d fleet workers registered", srv.Coordinator().LiveWorkers(), workers)
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// close stops the fleet, drains the server and waits for every goroutine
// the stack started.
func (s *stack) close() {
	s.srv.Shutdown(5 * time.Second)
	s.stop()
	for _, d := range s.done {
		<-d
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // best effort at teardown
	s.client.CloseIdleConnections()
}

// newClient is a keep-alive client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// call sends one request and reads the whole response.
func call(c *http.Client, method, url, reqID string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(traceIDHeader, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// getJSON decodes a 200 GET response into v.
func (s *stack) getJSON(path string, v any) error {
	status, _, b, err := call(s.client, http.MethodGet, s.url+path, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, b)
	}
	return json.Unmarshal(b, v)
}

// submit posts a build and returns the queued job's ID.
func (s *stack) submit(c *http.Client, req serve.BuildRequest, reqID string) (string, error) {
	status, _, b, err := call(c, http.MethodPost, s.url+"/v1/build", reqID, mustJSON(req))
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/build: status %d: %s", status, b)
	}
	var acc serve.BuildAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		return "", err
	}
	return acc.Job.ID, nil
}

// waitJob polls a job until it reaches a terminal state. Latency is read
// from the job's finished_at, so the poll cadence only bounds how soon the
// next closed-loop build can start.
func (s *stack) waitJob(c *http.Client, id string, poll time.Duration) (serve.JobView, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var v serve.JobView
		status, _, b, err := call(c, http.MethodGet, s.url+"/v1/jobs/"+id, "", nil)
		if err != nil {
			return v, err
		}
		if status != http.StatusOK {
			return v, fmt.Errorf("GET /v1/jobs/%s: status %d", id, status)
		}
		if err := json.Unmarshal(b, &v); err != nil {
			return v, err
		}
		switch serve.JobState(v.State) {
		case serve.JobDone, serve.JobFailed, serve.JobCanceled:
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s did not finish within 2 minutes", id)
		}
		time.Sleep(poll)
	}
}

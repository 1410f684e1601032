package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/sim"
)

// slowProblem is a problem factory whose simulator takes a fixed wall-time
// per run — enough to saturate a tightly-limited validate endpoint without
// timing games elsewhere.
func slowProblem(delay time.Duration) ProblemFactory {
	return func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			time.Sleep(delay)
			r := &sim.Result{
				AvgHarvestedPower: d.Node.Period * 1e-6,
				StoredEnergyEnd:   d.Store.C,
				FinalStoreV:       3,
				UptimeFraction:    d.Store.C * 5,
				NetEnergyMargin:   1e-3 * d.Node.Period,
			}
			r.Node.Packets = int(d.Node.Period)
			r.Node.FirstTxTime = d.Node.Period / 2
			return r, nil
		}
		return p
	}
}

// oneShot never retries: the open-loop storm below must see every 429 as
// the server sent it, not paper over sheds with client-side retries.
func oneShot() *apiclient.Client {
	return apiclient.New("", apiclient.Options{MaxAttempts: 1})
}

// midpoint is a valid natural-units point for the model: every factor at
// its range midpoint.
func midpoint(ss *core.SavedSurfaces) []float64 {
	p := make([]float64, len(ss.Factors))
	for i, f := range ss.Factors {
		p[i] = (f.Min + f.Max) / 2
	}
	return p
}

// TestOverloadChaosE2E is the overload drill: a request storm at 10× the
// validate endpoint's capacity must leave the admitted requests fast, shed
// the rest with typed 429s carrying Retry-After, keep every counter
// consistent, return the limiter and goroutine count to baseline, and
// still drain gracefully afterwards.
func TestOverloadChaosE2E(t *testing.T) {
	fixture(t) // build the shared surfaces before the goroutine baseline
	before := runtime.NumGoroutine()

	srv, ts := newTestServer(t, Config{
		Problem: slowProblem(2 * time.Millisecond),
		Load: LoadConfig{
			Validate: EndpointLimit{MaxConcurrent: 2, MaxQueue: 2, MaxWait: 100 * time.Millisecond},
		},
	})
	srv.Registry().Set("m", fixture(t))

	const capacity = 4 // 2 serving + 2 queued
	const storm = 10 * capacity
	client := oneShot()

	type outcome struct {
		status     int
		code       string
		retryAfter string
		latency    time.Duration
	}
	outcomes := make([]outcome, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			res, err := client.Do(context.Background(), http.MethodPost, ts.URL+"/v1/validate",
				ValidateRequest{Model: "m", N: 3, Seed: int64(i)})
			if err != nil {
				t.Errorf("request %d transport failure: %v", i, err)
				return
			}
			var env errorBody
			json.Unmarshal(res.Body, &env)
			outcomes[i] = outcome{
				status:     res.Status,
				code:       env.Code,
				retryAfter: res.Header.Get("Retry-After"),
				latency:    time.Since(start),
			}
		}(i)
	}
	wg.Wait()

	var served, shed int
	var servedLat []time.Duration
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			served++
			servedLat = append(servedLat, o.latency)
		case http.StatusTooManyRequests:
			shed++
			if o.code != codeOverloaded {
				t.Fatalf("request %d shed with code %q, want %q", i, o.code, codeOverloaded)
			}
			secs, err := strconv.Atoi(o.retryAfter)
			if err != nil || secs < 1 {
				t.Fatalf("request %d shed without a usable Retry-After: %q", i, o.retryAfter)
			}
		default:
			t.Fatalf("request %d: unexpected status %d (code %q)", i, o.status, o.code)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("storm must both serve and shed: served %d, shed %d of %d", served, shed, storm)
	}

	// Admitted requests stay fast: bounded queue wait plus bounded service
	// time, nowhere near the storm's aggregate demand.
	sort.Slice(servedLat, func(i, j int) bool { return servedLat[i] < servedLat[j] })
	p99 := servedLat[(len(servedLat)*99)/100]
	if p99 > 2*time.Second {
		t.Fatalf("admitted p99 %s; admission control failed to bound latency", p99)
	}

	// The instruments agree with the observed outcomes exactly.
	if got := srv.admitted.With("validate").Value(); got != uint64(served) {
		t.Fatalf("admitted counter %d, want %d", got, served)
	}
	if got := srv.shed.With("validate").Value(); got != uint64(shed) {
		t.Fatalf("shed counter %d, want %d", got, shed)
	}
	hist := srv.admissionWait.With("validate")
	if hist.Count() != storm {
		t.Fatalf("queued-wait histogram saw %d requests, want %d", hist.Count(), storm)
	}
	if hist.Sum() < 0 {
		t.Fatalf("queued-wait histogram sum %g negative", hist.Sum())
	}

	// The limiter settles back to idle.
	lim := srv.limits["validate"]
	settle := time.Now().Add(5 * time.Second)
	for lim.Inflight() != 0 || lim.QueueDepth() != 0 {
		if time.Now().After(settle) {
			t.Fatalf("limiter never settled: inflight %d queued %d", lim.Inflight(), lim.QueueDepth())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Graceful drain still completes promptly after the storm.
	start := time.Now()
	srv.Shutdown(5 * time.Second)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("post-storm drain took %s", d)
	}

	// And the goroutine count returns to baseline.
	ts.CloseClientConnections()
	ts.Close()
	leakDeadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after storm\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBuildQueueRaceExactCapacity races a burst of build submissions
// against a nearly-full queue: with one build running and QueueCap slots,
// exactly QueueCap of the burst may be accepted — never more, never fewer
// — and every rejection is a typed queue_full with Retry-After.
func TestBuildQueueRaceExactCapacity(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)
	const queueCap = 4

	srv, ts := newTestServer(t, Config{Problem: blockingProblem(release, quit), QueueCap: queueCap})
	first, err := srv.Jobs().Submit(context.Background(), BuildRequest{Model: "warm", Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv.Jobs(), first.ID, JobRunning) // queue is empty, worker busy

	const burst = 16
	client := oneShot()
	statuses := make([]int, burst)
	codes := make([]string, burst)
	retryAfters := make([]string, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := client.Do(context.Background(), http.MethodPost, ts.URL+"/v1/build",
				BuildRequest{Model: "race", Horizon: 1})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			statuses[i] = res.Status
			var env errorBody
			json.Unmarshal(res.Body, &env)
			codes[i] = env.Code
			retryAfters[i] = res.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	accepted, rejected := 0, 0
	for i := range statuses {
		switch statuses[i] {
		case http.StatusAccepted:
			accepted++
		case http.StatusServiceUnavailable:
			rejected++
			if codes[i] != codeQueueFull {
				t.Fatalf("submit %d rejected with code %q, want %q", i, codes[i], codeQueueFull)
			}
			if retryAfters[i] == "" {
				t.Fatalf("submit %d: queue_full response lost its Retry-After header", i)
			}
		default:
			t.Fatalf("submit %d: unexpected status %d", i, statuses[i])
		}
	}
	if accepted != queueCap || rejected != burst-queueCap {
		t.Fatalf("race admitted %d and rejected %d, want exactly %d and %d",
			accepted, rejected, queueCap, burst-queueCap)
	}
	if got := srv.Jobs().QueueDepth(); got != queueCap {
		t.Fatalf("queue depth %d after burst, want %d", got, queueCap)
	}

	// Releasing the engine lets everything finish; nothing is stuck.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for srv.Jobs().QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: depth %d", srv.Jobs().QueueDepth())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPredictAfterHotSwap is the staleness regression: a predict after a
// model is hot-swapped must reflect the new surfaces, never the old ones.
func TestPredictAfterHotSwap(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("swap", fixture(t))

	req := PredictRequest{Model: "swap", Point: midpoint(fixture(t))}
	resp1, body1 := postJSON(t, ts.URL+"/v1/predict", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("pre-swap predict: %d %s", resp1.StatusCode, body1)
	}

	// Build a genuinely different model: same shape, every coefficient
	// doubled, uploaded over the same name via the public PUT.
	encoded, err := fixture(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	altered, err := core.DecodeSurfaces(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for id := range altered.Coef {
		for i := range altered.Coef[id] {
			altered.Coef[id][i] *= 2
		}
	}
	doc, err := altered.Encode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := testAPI.Do(context.Background(), http.MethodPut, ts.URL+"/v1/models/swap", json.RawMessage(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK {
		t.Fatalf("hot-swap PUT: %d %s", res.Status, res.Body)
	}

	resp3, body3 := postJSON(t, ts.URL+"/v1/predict", req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("post-swap predict: %d %s", resp3.StatusCode, body3)
	}
	if string(body3) == string(body1) {
		t.Fatal("post-swap predict returned the old model's values")
	}
}

// TestHealthzReportsQueueDepth: /healthz carries live queue pressure.
func TestHealthzReportsQueueDepth(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)

	srv, ts := newTestServer(t, Config{Problem: blockingProblem(release, quit), QueueCap: 2})
	first, err := srv.Jobs().Submit(context.Background(), BuildRequest{Model: "h", Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv.Jobs(), first.ID, JobRunning)
	for i := 0; i < 2; i++ {
		if _, err := srv.Jobs().Submit(context.Background(), BuildRequest{Model: "h", Horizon: 1}); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var health HealthResponse
	unmarshal(t, body, &health)
	if health.QueueDepth != 2 || health.QueueCap != 2 {
		t.Fatalf("healthz queue %d/%d, want 2/2", health.QueueDepth, health.QueueCap)
	}
	close(release)
}

// TestAdmissionDisabled: Load.Disable turns the limiters off — no 429s no
// matter the concurrency.
func TestAdmissionDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{
		Load: LoadConfig{
			Disable:  true,
			Validate: EndpointLimit{MaxConcurrent: 1, MaxQueue: 0, MaxWait: time.Millisecond},
		},
	})
	srv.Registry().Set("m", fixture(t))
	if len(srv.limits) != 0 {
		t.Fatalf("disabled admission still built %d limiters", len(srv.limits))
	}

	client := oneShot()
	var wg sync.WaitGroup
	errs := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := client.Do(context.Background(), http.MethodPost, ts.URL+"/v1/validate",
				ValidateRequest{Model: "m", N: 1, Seed: int64(i)})
			if err != nil {
				t.Errorf("validate %d: %v", i, err)
				return
			}
			errs[i] = res.Status
		}(i)
	}
	wg.Wait()
	for i, status := range errs {
		if status != http.StatusOK {
			t.Fatalf("validate %d: status %d with admission disabled", i, status)
		}
	}
}

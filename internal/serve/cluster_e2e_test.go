package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// fleetProblem is the deterministic fake-engine problem both sides of the
// fleet tests share: the server uses it for local builds, the workers for
// leased points, so the two paths are comparable bit-for-bit. EngineName
// is set so the worker's runner chain (fault injector, cache) intercepts
// runs; the Direct runner keeps tests off the process-wide cache.
func fleetProblem(amp, horizon float64) *core.Problem {
	p := core.StandardProblem(amp, horizon)
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		// A token per-point cost so several workers genuinely interleave.
		time.Sleep(200 * time.Microsecond)
		return chaosResult(d), nil
	}
	p.EngineName = "servefleet"
	p.Runner = simcache.Direct{}
	return p
}

// fastFleet shrinks the coordinator's failure detectors for tests.
func fastFleet() cluster.Config {
	return cluster.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		LeaseTimeout:      time.Minute,
		LeasePoints:       4,
		PollInterval:      2 * time.Millisecond,
		Tick:              10 * time.Millisecond,
	}
}

// startFleetWorker runs a worker against the server's public URL — the
// same wire path a real simnode -serve daemon takes.
func startFleetWorker(t *testing.T, url, id string, factory cluster.ProblemFactory) (*cluster.Worker, chan error) {
	t.Helper()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: url,
		ID:          id,
		Problem:     factory,
		Concurrency: 2,
		Heartbeat:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(context.Background()) }()
	return w, errc
}

func waitFleet(t *testing.T, c *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d live workers (have %d)", n, c.LiveWorkers())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleetBuild posts a build request and returns the accepted job.
func fleetBuild(t *testing.T, ts string, req BuildRequest) JobView {
	t.Helper()
	resp, body := postJSON(t, ts+"/v1/build", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	var accepted BuildAccepted
	unmarshal(t, body, &accepted)
	return accepted.Job
}

// pollJob polls one job over HTTP until it leaves queued/running.
func pollJob(t *testing.T, ts, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := get(t, ts+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: %d %s", resp.StatusCode, body)
		}
		var job JobView
		unmarshal(t, body, &job)
		if job.State != string(JobQueued) && job.State != string(JobRunning) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sameModelData asserts two registered models carry bitwise-identical
// experiments (design rows and response columns) — the acceptance bar for
// fleet builds: sharding must not change a single bit of the dataset.
func sameModelData(t *testing.T, srv *Server, got, want string) {
	t.Helper()
	g, ok := srv.Registry().Get(got)
	if !ok {
		t.Fatalf("model %q not registered", got)
	}
	w, ok := srv.Registry().Get(want)
	if !ok {
		t.Fatalf("model %q not registered", want)
	}
	if len(g.DesignRuns) != len(w.DesignRuns) {
		t.Fatalf("%d design rows, want %d", len(g.DesignRuns), len(w.DesignRuns))
	}
	for i := range w.DesignRuns {
		for k := range w.DesignRuns[i] {
			if g.DesignRuns[i][k] != w.DesignRuns[i][k] {
				t.Fatalf("design row %d col %d differs", i, k)
			}
		}
	}
	if len(g.DataY) != len(w.DataY) {
		t.Fatalf("%d response columns, want %d", len(g.DataY), len(w.DataY))
	}
	for id, wcol := range w.DataY {
		gcol := g.DataY[id]
		if len(gcol) != len(wcol) {
			t.Fatalf("response %q has %d rows, want %d", id, len(gcol), len(wcol))
		}
		for i := range wcol {
			if gcol[i] != wcol[i] {
				t.Fatalf("response %q row %d: %v != %v (not bit-identical)", id, i, gcol[i], wcol[i])
			}
		}
	}
	for id, wr2 := range w.R2 {
		if g.R2[id] != wr2 {
			t.Fatalf("R2[%q]: %v != %v", id, g.R2[id], wr2)
		}
	}
}

// TestClusterBuildEndToEnd: a 3-worker fleet dialed at the server's public
// URL builds a model via POST /v1/build with pool "cluster", bit-identical
// to the same build run locally; the fleet shows up in /v1/cluster/workers,
// /v1/spec and the per-worker /metrics gauges; server shutdown drains the
// workers cleanly.
func TestClusterBuildEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueCap: 4, Problem: fleetProblem, Cluster: fastFleet()})

	ids := []string{"fw-1", "fw-2", "fw-3"}
	errcs := make([]chan error, len(ids))
	for i, id := range ids {
		_, errcs[i] = startFleetWorker(t, ts.URL, id, fleetProblem)
	}
	waitFleet(t, srv.Coordinator(), len(ids))

	job := fleetBuild(t, ts.URL, BuildRequest{
		Model: "fleet", Design: "ccf", Horizon: 2, Seed: 1, Pool: PoolCluster,
	})
	if job.Pool != PoolCluster {
		t.Fatalf("accepted job lost its pool: %+v", job)
	}
	if done := pollJob(t, ts.URL, job.ID); done.State != string(JobDone) {
		t.Fatalf("fleet build did not finish: %+v", done)
	}
	local := fleetBuild(t, ts.URL, BuildRequest{
		Model: "local", Design: "ccf", Horizon: 2, Seed: 1, Workers: 4,
	})
	if done := pollJob(t, ts.URL, local.ID); done.State != string(JobDone) {
		t.Fatalf("local build did not finish: %+v", done)
	}
	sameModelData(t, srv, "fleet", "local")

	// The fleet is visible through the health view...
	resp, body := get(t, ts.URL+cluster.PathWorkers)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers view: %d %s", resp.StatusCode, body)
	}
	var wv cluster.WorkersResponse
	unmarshal(t, body, &wv)
	if len(wv.Workers) != len(ids) {
		t.Fatalf("workers view has %d workers, want %d", len(wv.Workers), len(ids))
	}
	total, contributed := 0, 0
	for _, w := range wv.Workers {
		if w.State != "active" {
			t.Fatalf("worker %s in state %q, want active", w.ID, w.State)
		}
		total += w.CompletedPoints
		if w.CompletedPoints > 0 {
			contributed++
		}
	}
	if total != 27 {
		t.Fatalf("fleet completed %d points, want 27", total)
	}
	if contributed < 2 {
		t.Fatalf("only %d workers contributed; the design was not sharded", contributed)
	}

	// ...in the machine-readable spec...
	if _, body = get(t, ts.URL+"/v1/spec"); !strings.Contains(string(body), cluster.PathLease) {
		t.Fatalf("/v1/spec does not document the cluster endpoints")
	}

	// ...and as per-worker metrics.
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"ehdoed_cluster_workers 3",
		`ehdoed_cluster_worker_completed_points_total{worker="fw-1"}`,
		`ehdoed_cluster_worker_inflight_leases{worker="fw-1"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics misses %q:\n%s", want, body)
		}
	}

	// Server shutdown drains the fleet: every worker deregisters and its
	// Run loop returns nil.
	srv.Shutdown(2 * time.Second)
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("worker %s did not drain cleanly: %v", ids[i], err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %s never exited after shutdown", ids[i])
		}
	}
}

// TestClusterBuildWorkerKillChaos: the seeded fault injector kills the only
// worker mid-lease; two healthy workers join within the heartbeat-timeout
// window, the coordinator re-enqueues the dead worker's points, and the
// build converges bit-identical to a local run.
func TestClusterBuildWorkerKillChaos(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueCap: 4, Problem: fleetProblem, Cluster: fastFleet()})

	// The victim's first run draws Kill; the injector's OnKill hook takes
	// the whole worker down, exactly like a crashed simnode process.
	inj := fault.New(fault.Config{Seed: 1, PKill: 1})
	killFactory := func(amp, horizon float64) *core.Problem {
		p := fleetProblem(amp, horizon)
		p.Runner = inj.Wrap(nil)
		return p
	}
	victim, victimErr := startFleetWorker(t, ts.URL, "fw-victim", killFactory)
	inj.OnKill(victim.Kill)
	waitFleet(t, srv.Coordinator(), 1)

	job := fleetBuild(t, ts.URL, BuildRequest{
		Model: "chaos", Design: "ccf", Horizon: 2, Seed: 1, Pool: PoolCluster,
	})

	// The victim must die on its first leased point...
	select {
	case err := <-victimErr:
		if err == nil || !strings.Contains(err.Error(), "killed") {
			t.Fatalf("victim exited with %v, want a kill", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("victim never died")
	}
	// ...and the healthy replacements join before the heartbeat timeout
	// declares the fleet empty.
	for _, id := range []string{"fw-ok-1", "fw-ok-2"} {
		startFleetWorker(t, ts.URL, id, fleetProblem)
	}

	done := pollJob(t, ts.URL, job.ID)
	if done.State != string(JobDone) {
		t.Fatalf("chaos build did not converge: %+v", done)
	}
	if done.Retries == 0 {
		t.Fatalf("job snapshot must count the re-granted points: %+v", done)
	}
	local := fleetBuild(t, ts.URL, BuildRequest{
		Model: "chaos-local", Design: "ccf", Horizon: 2, Seed: 1,
	})
	if done := pollJob(t, ts.URL, local.ID); done.State != string(JobDone) {
		t.Fatalf("local build did not finish: %+v", done)
	}
	sameModelData(t, srv, "chaos", "chaos-local")

	// The coordinator's book shows the victim lost with nothing credited.
	for _, w := range srv.Coordinator().Workers() {
		if w.ID == "fw-victim" {
			if w.State != "lost" {
				t.Fatalf("victim in state %q, want lost", w.State)
			}
			if w.CompletedPoints != 0 {
				t.Fatalf("victim credited %d points, want 0", w.CompletedPoints)
			}
		}
	}
}

// TestClusterBuildValidation pins the pool contract at the HTTP edge: an
// empty fleet answers 409 conflict (state, retryable), an unknown pool 400.
func TestClusterBuildValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueCap: 4, Problem: fleetProblem, Cluster: fastFleet()})

	resp, body := postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "m", Horizon: 2, Pool: PoolCluster,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cluster build with no workers: %d %s, want 409", resp.StatusCode, body)
	}
	var e errorBody
	unmarshal(t, body, &e)
	if e.Code != codeConflict {
		t.Fatalf("error code %q, want %q", e.Code, codeConflict)
	}

	resp, body = postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "m", Horizon: 2, Pool: "bogus",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown pool: %d %s, want 400", resp.StatusCode, body)
	}
	unmarshal(t, body, &e)
	if e.Code != codeInvalidRequest || !strings.Contains(e.Error, "bogus") {
		t.Fatalf("unknown pool error: %+v", e)
	}
}

// TestClusterShutdownCancelsBuild: server shutdown while a cluster build
// is mid-lease cancels the job (code canceled), drains the worker, and
// leaks no goroutines — the serve-level twin of the jobs drain test.
func TestClusterShutdownCancelsBuild(t *testing.T) {
	before := runtime.NumGoroutine()

	release := make(chan struct{})
	blocked := func(amp, horizon float64) *core.Problem {
		p := fleetProblem(amp, horizon)
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			<-release
			return chaosResult(d), nil
		}
		return p
	}
	srv, ts := newTestServer(t, Config{QueueCap: 4, Problem: fleetProblem, Cluster: fastFleet()})
	_, workerErr := startFleetWorker(t, ts.URL, "fw-block", blocked)
	waitFleet(t, srv.Coordinator(), 1)

	job := fleetBuild(t, ts.URL, BuildRequest{
		Model: "stuck", Design: "ccf", Horizon: 2, Pool: PoolCluster,
	})
	// Wait until the worker actually holds a lease, so shutdown exercises
	// the cancel-outstanding-leases path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		held := 0
		for _, w := range srv.Coordinator().Workers() {
			held += w.InflightLeases
		}
		if held > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never leased any points")
		}
		time.Sleep(2 * time.Millisecond)
	}

	srv.Shutdown(time.Second)
	done := pollJob(t, ts.URL, job.ID)
	if done.State != string(JobCanceled) || done.ErrorCode != jobCodeCanceled {
		t.Fatalf("cluster build must cancel on shutdown: %+v", done)
	}

	close(release)
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited after shutdown")
	}

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
			t.Fatalf("goroutines leaked: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fleetCachedProblem is fleetProblem with the Runner left open so each
// worker fronts leased points with its own simcache — the sharded-tier
// configuration a `simnode -serve -peer-listen` daemon runs.
func fleetCachedProblem(amp, horizon float64) *core.Problem {
	p := fleetProblem(amp, horizon)
	p.Runner = nil
	return p
}

// startCacheFleetWorker runs a fleet worker whose simcache participates in
// the sharded cache tier over a real loopback peer listener.
func startCacheFleetWorker(t *testing.T, url, id string) (*cluster.Worker, chan error) {
	t.Helper()
	cache := simcache.New(simcache.Options{Capacity: 256})
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: url,
		ID:          id,
		Problem:     fleetCachedProblem,
		Runner:      cache,
		Cache:       cache,
		PeerAddr:    "127.0.0.1:0",
		Concurrency: 2,
		Heartbeat:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(context.Background()) }()
	return w, errc
}

// TestClusterFleetCacheExactlyOnce is the tentpole acceptance e2e: over a
// cache-sharded 3-worker fleet, a repeated build request simulates each
// unique design point exactly once fleet-wide. The first build pays one
// engine execution per unique point (the ccf k=4 design has 27 rows, 25
// unique — center replicas may race onto distinct workers); the repeat
// build pays zero: every point is answered by a worker's own cache or a
// peer fetch from the owning shard, and the two models are bit-identical.
func TestClusterFleetCacheExactlyOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueCap: 4, Problem: fleetProblem, Cluster: fastFleet()})

	ids := []string{"cw-1", "cw-2", "cw-3"}
	errcs := make([]chan error, len(ids))
	for i, id := range ids {
		_, errcs[i] = startCacheFleetWorker(t, ts.URL, id)
	}
	waitFleet(t, srv.Coordinator(), len(ids))

	counters := func() (hits, misses, fetches float64) {
		_, body := get(t, ts.URL+"/metrics")
		page := string(body)
		return metricValue(t, page, "ehdoed_cluster_cache_hits_total"),
			metricValue(t, page, "ehdoed_cluster_cache_misses_total"),
			metricValue(t, page, "ehdoed_cluster_cache_peer_fetches_total")
	}

	job := fleetBuild(t, ts.URL, BuildRequest{
		Model: "cache-a", Design: "ccf", Horizon: 2, Seed: 1, Pool: PoolCluster,
	})
	if done := pollJob(t, ts.URL, job.ID); done.State != string(JobDone) {
		t.Fatalf("first cached fleet build did not finish: %+v", done)
	}
	hitsA, missesA, fetchesA := counters()
	// Every unique point simulated exactly once fleet-wide: 25 unique rows,
	// plus up to 2 center replicas that may race onto workers that haven't
	// seen (or fetched) the first center run yet.
	if missesA < 25 || missesA > 27 {
		t.Fatalf("first build ran the engine %v times, want 25..27", missesA)
	}
	// Each of the 27 leased points resolved exactly one way.
	if got := hitsA + fetchesA + missesA; got != 27 {
		t.Fatalf("first build resolved %v points (hits %v + fetches %v + misses %v), want 27",
			got, hitsA, fetchesA, missesA)
	}

	repeat := fleetBuild(t, ts.URL, BuildRequest{
		Model: "cache-b", Design: "ccf", Horizon: 2, Seed: 1, Pool: PoolCluster,
	})
	if done := pollJob(t, ts.URL, repeat.ID); done.State != string(JobDone) {
		t.Fatalf("repeat cached fleet build did not finish: %+v", done)
	}
	hitsB, missesB, fetchesB := counters()
	// The repeat build must not touch the engine at all...
	if missesB != missesA {
		t.Fatalf("repeat build ran the engine %v more times — fleet cache not exactly-once", missesB-missesA)
	}
	// ...and must answer all 27 points from the cache tier.
	if got := (hitsB + fetchesB) - (hitsA + fetchesA); got != 27 {
		t.Fatalf("repeat build answered %v points from the cache tier, want 27", got)
	}
	sameModelData(t, srv, "cache-a", "cache-b")

	// The typed cache view agrees with the metrics and shows the shard map.
	resp, body := get(t, ts.URL+cluster.PathCache)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache view: %d %s", resp.StatusCode, body)
	}
	var cs cluster.CacheStateResponse
	unmarshal(t, body, &cs)
	if cs.Map == nil || cs.Map.Generation < 3 || cs.Map.Shards != cluster.DefaultShards {
		t.Fatalf("cache view shard map: %+v", cs.Map)
	}
	if len(cs.Workers) != len(ids) {
		t.Fatalf("cache view has %d workers, want %d", len(cs.Workers), len(ids))
	}
	owned := 0
	for _, w := range cs.Workers {
		if w.PeerURL == "" {
			t.Fatalf("worker %s advertises no peer URL", w.ID)
		}
		if w.Shards == 0 {
			t.Fatalf("worker %s owns no shard ranges", w.ID)
		}
		owned += w.Shards
	}
	if owned != cluster.DefaultShards {
		t.Fatalf("workers own %d slots in total, want %d", owned, cluster.DefaultShards)
	}
	if cs.Totals.Misses != uint64(missesB) {
		t.Fatalf("cache view totals (%d misses) disagree with /metrics (%v)", cs.Totals.Misses, missesB)
	}

	// The cache view is a documented, spec-listed endpoint.
	if _, body = get(t, ts.URL+"/v1/spec"); !strings.Contains(string(body), cluster.PathCache) {
		t.Fatalf("/v1/spec does not document %s", cluster.PathCache)
	}

	srv.Shutdown(2 * time.Second)
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("worker %s did not drain cleanly: %v", ids[i], err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %s never exited after shutdown", ids[i])
		}
	}
}

// TestClusterRoutesInstrumented: the work protocol is answered by the
// coordinator's own handler, mounted through serve's endpoint table, so
// fleet traffic still shows up per route in /metrics and carries request
// IDs. A fleet build counts lease and results requests; a stale-protocol
// register counts as a cluster_register error.
func TestClusterRoutesInstrumented(t *testing.T) {
	srv, ts := newTestServer(t, Config{QueueCap: 2, Problem: fleetProblem, Cluster: fastFleet()})
	_, errc := startFleetWorker(t, ts.URL, "iw-1", fleetProblem)
	waitFleet(t, srv.Coordinator(), 1)
	job := fleetBuild(t, ts.URL, BuildRequest{Model: "fleet", Design: "ccf", Horizon: 2, Seed: 1, Pool: PoolCluster})
	if done := pollJob(t, ts.URL, job.ID); done.State != string(JobDone) {
		t.Fatalf("fleet build did not finish: %+v", done)
	}
	_, page := get(t, ts.URL+"/metrics")
	for _, ep := range []string{"cluster_register", "cluster_lease", "cluster_results"} {
		if v := metricValue(t, string(page), `ehdoed_requests_total{endpoint="`+ep+`"}`); v < 1 {
			t.Fatalf("%s requests = %v, want ≥ 1", ep, v)
		}
	}
	if strings.Contains(string(page), `ehdoed_request_errors_total{endpoint="cluster_register"}`) {
		t.Fatalf("a clean fleet build counted register errors:\n%s", page)
	}

	resp, err := http.Post(ts.URL+cluster.PathRegister, "application/json",
		strings.NewReader(`{"proto_version":1,"worker":"stale"}`))
	if err != nil {
		t.Fatal(err)
	}
	var env errorBody
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Code != codeProtoMismatch || resp.Header.Get("X-Request-ID") == "" {
		t.Fatalf("stale register: %d %+v, X-Request-ID %q", resp.StatusCode, env, resp.Header.Get("X-Request-ID"))
	}
	_, page = get(t, ts.URL+"/metrics")
	if v := metricValue(t, string(page), `ehdoed_request_errors_total{endpoint="cluster_register"}`); v != 1 {
		t.Fatalf("cluster_register errors = %v, want 1", v)
	}

	srv.Shutdown(2 * time.Second)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited after shutdown")
	}
}

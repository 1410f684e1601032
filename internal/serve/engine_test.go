package serve

import (
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildAndWait enqueues a build and polls it to a terminal state.
func buildAndWait(t *testing.T, url string, req BuildRequest) JobView {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/build", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	unmarshal(t, body, &accepted)
	deadline := time.Now().Add(60 * time.Second)
	var job JobView
	for {
		resp, body = get(t, url+"/v1/jobs/"+accepted.Job.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: %d %s", resp.StatusCode, body)
		}
		unmarshal(t, body, &job)
		if job.State != string(JobQueued) && job.State != string(JobRunning) {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("build did not finish: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBuildEngineBatch drives a build with the "batch" engine synonym end
// to end: the job echoes the engine it was sent plus the lockstep
// executor's stats, a following fast build is answered entirely from the
// shared cache (the same executor filled it), a repeat batch build
// short-circuits, and the batch counters land on /metrics.
func TestBuildEngineBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueCap: 4})

	batch := buildAndWait(t, ts.URL, BuildRequest{
		Model: "mb", Design: "ccf", Horizon: 2, Seed: 1, Engine: EngineBatch,
	})
	if batch.State != string(JobDone) {
		t.Fatalf("batch build failed: %+v", batch)
	}
	if batch.Engine != EngineBatch {
		t.Fatalf("job engine = %q, want %q", batch.Engine, EngineBatch)
	}
	bs := batch.Batch
	if bs == nil {
		t.Fatalf("batch job carries no batch stats: %+v", batch)
	}
	// CCF k=4 with three centre replicates: 27 runs on 25 unique points.
	if bs.Points != 27 || bs.Lanes != 25 || bs.Chunks == 0 {
		t.Fatalf("lockstep executor did not run every unique point: %+v", bs)
	}
	if bs.Peeled != 0 {
		t.Fatalf("fresh cache peeled %d points", bs.Peeled)
	}

	// Same design under the fast engine: every simulation is a cache hit on
	// the batch build's entries, and the fitted surfaces are identical.
	fast := buildAndWait(t, ts.URL, BuildRequest{
		Model: "mf", Design: "ccf", Horizon: 2, Seed: 1,
	})
	if fast.State != string(JobDone) {
		t.Fatalf("fast build failed: %+v", fast)
	}
	if fast.Engine != EngineFast {
		t.Fatalf("default engine = %q, want %q", fast.Engine, EngineFast)
	}
	// Every local fast build runs the lockstep executor; this one finds
	// all of its unique points in the cache and launches no lane.
	if fb := fast.Batch; fb == nil || fb.Points != bs.Points || fb.Peeled != bs.Lanes || fb.Lanes != 0 || fb.Chunks != 0 {
		t.Fatalf("fast build must peel every unique point the batch build simulated: %+v", fast.Batch)
	}
	if len(fast.R2) != len(batch.R2) {
		t.Fatalf("R2 sets differ: %v vs %v", fast.R2, batch.R2)
	}
	for id, r2 := range batch.R2 {
		if fast.R2[id] != r2 {
			t.Fatalf("R2[%s]: fast %v != batch %v — cache aliasing broken", id, fast.R2[id], r2)
		}
	}

	// A repeat batch build finds everything cached: the executor peels all
	// unique points and launches no chunks.
	again := buildAndWait(t, ts.URL, BuildRequest{
		Model: "mb2", Design: "ccf", Horizon: 2, Seed: 1, Engine: EngineBatch,
	})
	if again.State != string(JobDone) {
		t.Fatalf("repeat batch build failed: %+v", again)
	}
	if again.Batch == nil || again.Batch.Peeled == 0 || again.Batch.Chunks != 0 || again.Batch.Lanes != 0 {
		t.Fatalf("all-cached batch must short-circuit, got %+v", again.Batch)
	}

	// The lane counter accumulated the first build's lanes.
	_, body := get(t, ts.URL+"/metrics")
	m := regexp.MustCompile(`(?m)^ehdoed_sim_batch_lanes_total (\d+)$`).FindStringSubmatch(string(body))
	if m == nil {
		t.Fatalf("ehdoed_sim_batch_lanes_total missing from /metrics:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n != bs.Lanes {
		t.Fatalf("ehdoed_sim_batch_lanes_total = %s, want %d", m[1], bs.Lanes)
	}
	if !strings.Contains(string(body), "ehdoed_sim_batch_rebuild_amortized_total") {
		t.Fatalf("ehdoed_sim_batch_rebuild_amortized_total missing from /metrics:\n%s", body)
	}
}

// TestEngineFieldValidation pins the typed engine contract: unknown values
// are rejected with code bad_field on both endpoints, the cluster pool
// refuses the reference engine, and it runs a build under the batch
// synonym of fast, echoing "batch" in the job view.
func TestEngineFieldValidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))

	resp, body := postJSON(t, ts.URL+"/v1/build", BuildRequest{Model: "x", Engine: "warp"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad engine build: %d %s", resp.StatusCode, body)
	}
	var eb errorBody
	unmarshal(t, body, &eb)
	if eb.Code != codeBadField {
		t.Fatalf("bad engine build code = %q, want %q (%s)", eb.Code, codeBadField, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Model: "m", Engine: "warp"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad engine validate: %d %s", resp.StatusCode, body)
	}
	unmarshal(t, body, &eb)
	if eb.Code != codeBadField {
		t.Fatalf("bad engine validate code = %q, want %q (%s)", eb.Code, codeBadField, body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "x", Pool: PoolCluster, Engine: EngineReference,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cluster+reference build: %d %s", resp.StatusCode, body)
	}
	unmarshal(t, body, &eb)
	if eb.Code != codeInvalidRequest || !strings.Contains(eb.Error, "only runs engine") {
		t.Fatalf("cluster+reference rejection: %s", body)
	}

	fleet, fts := newTestServer(t, Config{QueueCap: 4, Problem: fleetProblem, Cluster: fastFleet()})
	_, errc := startFleetWorker(t, fts.URL, "fw-batch", fleetProblem)
	waitFleet(t, fleet.Coordinator(), 1)
	job := fleetBuild(t, fts.URL, BuildRequest{
		Model: "x", Design: "ccf", Horizon: 2, Seed: 1, Pool: PoolCluster, Engine: EngineBatch,
	})
	if job.Engine != EngineBatch {
		t.Fatalf("accepted cluster+batch job reports engine %q", job.Engine)
	}
	if done := pollJob(t, fts.URL, job.ID); done.State != string(JobDone) || done.Engine != EngineBatch {
		t.Fatalf("cluster+batch build: %+v", done)
	}
	fleet.Shutdown(2 * time.Second)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited after shutdown")
	}
}

// TestValidateEngineBatch runs confirming simulations under the "batch"
// engine synonym and checks the response echoes the engine it was sent.
func TestValidateEngineBatch(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))

	resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		Model: "m", N: 3, Seed: 7, Horizon: 2, Engine: EngineBatch,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch validate: %d %s", resp.StatusCode, body)
	}
	var vr ValidateResponse
	unmarshal(t, body, &vr)
	if vr.Engine != EngineBatch || vr.N != 3 || len(vr.Rows) == 0 {
		t.Fatalf("batch validate report: %s", body)
	}

	// The same points under the default engine give bit-identical errors:
	// batch is a synonym of fast.
	resp, body = postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		Model: "m", N: 3, Seed: 7, Horizon: 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast validate: %d %s", resp.StatusCode, body)
	}
	var fr ValidateResponse
	unmarshal(t, body, &fr)
	if fr.Engine != EngineFast {
		t.Fatalf("default validate engine = %q, want %q", fr.Engine, EngineFast)
	}
	for i, row := range vr.Rows {
		if fr.Rows[i] != row {
			t.Fatalf("row %d: batch %+v != fast %+v", i, row, fr.Rows[i])
		}
	}
}

// TestSpecReflectsEngine checks the published contract picked up the new
// field on both request schemas.
func TestSpecReflectsEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := get(t, ts.URL+"/v1/spec")
	var spec SpecResponse
	unmarshal(t, body, &spec)
	for _, path := range []string{"/v1/build", "/v1/validate"} {
		found := false
		for _, ep := range spec.Endpoints {
			if ep.Path != path || ep.Request == nil {
				continue
			}
			for _, f := range ep.Request.Fields {
				if f.Name == "engine" && f.Type == "string" && f.Optional {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("spec: %s request schema lacks the engine field:\n%s", path, body)
		}
	}
}

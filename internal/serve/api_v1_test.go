package serve

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// submitBuild posts one build request and returns the accepted job view.
func submitBuild(t *testing.T, url, model string) JobView {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/build", BuildRequest{Model: model, Design: "ccf", Horizon: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build %s: %d %s", model, resp.StatusCode, body)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	unmarshal(t, body, &accepted)
	return accepted.Job
}

// TestJobsPagination drives GET /v1/jobs with state filters and the
// limit/after cursor: pages must tile the full list in submission order,
// next_after must appear exactly when more results remain, and an empty
// page must serialize as an empty array, never null.
func TestJobsPagination(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	close(release) // every build runs to completion immediately
	srv, ts := newTestServer(t, Config{Problem: blockingProblem(release, quit), QueueCap: 8})
	t.Cleanup(func() { close(quit) })

	var ids []string
	for i := 0; i < 5; i++ {
		j := submitBuild(t, ts.URL, "pg-"+strconv.Itoa(i))
		waitState(t, srv.Jobs(), j.ID, JobDone)
		ids = append(ids, j.ID)
	}

	var jr JobsResponse

	// Unfiltered: all five in submission order, no cursor.
	_, body := get(t, ts.URL+"/v1/jobs")
	unmarshal(t, body, &jr)
	if len(jr.Jobs) != 5 || jr.NextAfter != "" {
		t.Fatalf("full list: %s", body)
	}
	for i, j := range jr.Jobs {
		if j.ID != ids[i] {
			t.Fatalf("order broken at %d: got %s, want %s", i, j.ID, ids[i])
		}
	}

	// Cursor walk with limit=2: pages 2+2+1, next_after on all but the last.
	var walked []string
	after := ""
	for page := 0; ; page++ {
		url := ts.URL + "/v1/jobs?limit=2"
		if after != "" {
			url += "&after=" + after
		}
		_, body := get(t, url)
		jr = JobsResponse{} // absent next_after must not inherit the previous page's
		unmarshal(t, body, &jr)
		for _, j := range jr.Jobs {
			walked = append(walked, j.ID)
		}
		if jr.NextAfter == "" {
			if len(jr.Jobs) != 1 || page != 2 {
				t.Fatalf("page %d: %s", page, body)
			}
			break
		}
		if len(jr.Jobs) != 2 || jr.NextAfter != jr.Jobs[1].ID {
			t.Fatalf("page %d cursor: %s", page, body)
		}
		after = jr.NextAfter
	}
	if len(walked) != len(ids) {
		t.Fatalf("cursor walk visited %d jobs, want %d", len(walked), len(ids))
	}
	for i := range ids {
		if walked[i] != ids[i] {
			t.Fatalf("cursor walk out of order at %d", i)
		}
	}

	// State filter: everything is done, nothing is failed — and the empty
	// result must still be a JSON array.
	_, body = get(t, ts.URL+"/v1/jobs?state=done")
	unmarshal(t, body, &jr)
	if len(jr.Jobs) != 5 {
		t.Fatalf("state=done: %s", body)
	}
	_, body = get(t, ts.URL+"/v1/jobs?state=failed")
	if !strings.Contains(strings.ReplaceAll(string(body), " ", ""), `"jobs":[]`) {
		t.Fatalf("empty page must serialize as an array: %s", body)
	}

	// Filter composes with the cursor: done jobs strictly after the second.
	_, body = get(t, ts.URL+"/v1/jobs?state=done&after="+ids[1])
	unmarshal(t, body, &jr)
	if len(jr.Jobs) != 3 || jr.Jobs[0].ID != ids[2] {
		t.Fatalf("state+after: %s", body)
	}
}

// TestValidateExplicitSpec covers the explicit problem spec on
// /v1/validate: excite and horizon_s select the simulation.
func TestValidateExplicitSpec(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))

	// Explicit spec: the model was built at excite 0.6, horizon 2 — ask for
	// the same excitation over a shorter horizon.
	resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
		Model: "m", N: 2, Seed: 7, Excite: 0.6, Horizon: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit validate: %d %s", resp.StatusCode, body)
	}
	var vr ValidateResponse
	unmarshal(t, body, &vr)
	if vr.N != 2 || len(vr.Rows) == 0 {
		t.Fatalf("explicit validate report: %s", body)
	}
}

// TestMetricsReportCacheHits is the acceptance check for the simulation
// cache over HTTP: a repeated validation workload must show up as nonzero
// ehdoed_simcache_hits_total in GET /metrics.
func TestMetricsReportCacheHits(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))

	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{
			Model: "m", N: 2, Seed: 11, Horizon: 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("validate %d: %d %s", i, resp.StatusCode, body)
		}
	}

	_, body := get(t, ts.URL+"/metrics")
	metric := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					t.Fatalf("metric %s: %v", name, err)
				}
				return f
			}
		}
		t.Fatalf("metric %s missing:\n%s", name, body)
		return 0
	}
	if hits := metric("ehdoed_simcache_hits_total"); hits < 2 {
		t.Fatalf("repeat validation produced %v cache hits, want ≥ 2", hits)
	}
	if misses := metric("ehdoed_simcache_misses_total"); misses < 2 {
		t.Fatalf("first validation produced %v misses, want ≥ 2", misses)
	}
}

// TestQueueFullEnvelope checks the 503 envelope when the build queue is
// saturated: machine-readable code queue_full over HTTP.
func TestQueueFullEnvelope(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	srv, ts := newTestServer(t, Config{Problem: blockingProblem(release, quit), QueueCap: 1})
	t.Cleanup(func() { close(release) }) // let the stalled builds drain before Shutdown

	j := submitBuild(t, ts.URL, "qf-0") // occupies the runner
	waitState(t, srv.Jobs(), j.ID, JobRunning)
	submitBuild(t, ts.URL, "qf-1") // fills the queue

	resp, body := postJSON(t, ts.URL+"/v1/build", BuildRequest{Model: "qf-2", Design: "ccf", Horizon: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated build: %d %s", resp.StatusCode, body)
	}
	var eb errorBody
	unmarshal(t, body, &eb)
	if eb.Code != codeQueueFull || eb.Error == "" {
		t.Fatalf("queue-full envelope: %s", body)
	}
}

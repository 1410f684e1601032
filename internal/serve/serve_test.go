package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/rsm"
)

// fixture builds one small real surface set (short horizon, parallel
// runner) shared by every test in the package.
var (
	fixtureOnce sync.Once
	fixtureSS   *core.SavedSurfaces
	fixtureErr  error
)

func fixture(t testing.TB) *core.SavedSurfaces {
	t.Helper()
	fixtureOnce.Do(func() {
		p := core.StandardProblem(0.6, 2)
		design, err := core.NamedDesign("ccf", len(p.Factors), 0, 1)
		if err != nil {
			fixtureErr = err
			return
		}
		ds, err := p.RunDesign(context.Background(), design, 0)
		if err != nil {
			fixtureErr = err
			return
		}
		s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(len(p.Factors)))
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureSS = s.SaveWithData(ds)
	})
	if fixtureErr != nil {
		t.Fatalf("building fixture surfaces: %v", fixtureErr)
	}
	return fixtureSS
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(5 * time.Second)
	})
	return srv, ts
}

// testAPI drives every HTTP helper through the shared typed client, so
// the suite exercises the same wire path (request IDs, retry policy,
// error-envelope handling) as the real CLI and worker callers. Helpers
// hand absolute URLs to Do, which passes them through untouched.
var testAPI = apiclient.New("", apiclient.Options{})

// asResponse adapts an apiclient.Result to the *http.Response shape the
// package's historical call sites assert against (StatusCode, Header).
func asResponse(res *apiclient.Result) *http.Response {
	return &http.Response{StatusCode: res.Status, Header: res.Header}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	res, err := testAPI.Do(context.Background(), http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return asResponse(res), res.Body
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	res, err := testAPI.Do(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return asResponse(res), res.Body
}

func unmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal %q: %v", data, err)
	}
}

// TestEndToEnd is the acceptance flow: start the daemon, build a model via
// the async job API (parallel runner, real simulator at a short horizon),
// then drive every serving endpoint against the registered model and check
// the metrics recorded it all.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueCap: 4})

	// Health before anything else.
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Enqueue a build and poll it to completion.
	resp, body = postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "m1", Design: "ccf", Horizon: 2, Seed: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	unmarshal(t, body, &accepted)
	if accepted.Job.ID == "" || accepted.Job.State != string(JobQueued) {
		t.Fatalf("unexpected job snapshot: %+v", accepted.Job)
	}

	deadline := time.Now().Add(60 * time.Second)
	var job JobView
	for {
		resp, body = get(t, ts.URL+"/v1/jobs/"+accepted.Job.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll: %d %s", resp.StatusCode, body)
		}
		unmarshal(t, body, &job)
		if job.State == string(JobDone) || job.State == string(JobFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("build did not finish: %+v", job)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.State != string(JobDone) {
		t.Fatalf("build failed: %+v", job)
	}
	if job.Runs == 0 || job.SimMillis <= 0 || len(job.R2) == 0 {
		t.Fatalf("job finished without build stats: %+v", job)
	}
	if job.Speedup <= 0 {
		t.Fatalf("parallel runner reported no speedup accounting: %+v", job)
	}

	// The finished surfaces are registered and described.
	resp, body = get(t, ts.URL+"/v1/models")
	var list struct {
		Models []ModelSummary `json:"models"`
	}
	unmarshal(t, body, &list)
	if len(list.Models) != 1 || list.Models[0].Name != "m1" {
		t.Fatalf("model list: %s", body)
	}
	resp, body = get(t, ts.URL+"/v1/models/m1")
	var md ModelDetail
	unmarshal(t, body, &md)
	if len(md.Factors) != 4 || len(md.R2) == 0 || !md.HasData {
		t.Fatalf("model detail: %s", body)
	}

	// Batch predict in natural units: every requested response per point.
	resp, body = postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Model:  "m1",
		Points: [][]float64{{5, 0.05, 3.0, 0}, {12, 0.02, 2.8, 0.2}, {18, 0.09, 3.4, -0.4}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	unmarshal(t, body, &pr)
	if len(pr.Results) != 3 {
		t.Fatalf("want 3 results, got %s", body)
	}
	for _, res := range pr.Results {
		if len(res.Values) != len(md.Responses) {
			t.Fatalf("point %v missing responses: %v", res.Point, res.Values)
		}
	}

	// Single point, coded units, restricted responses.
	resp, body = postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Model: "m1", Units: "coded", Point: []float64{0, 0, 0, 0}, Responses: []string{"packets"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coded predict: %d %s", resp.StatusCode, body)
	}
	var codedPr PredictResponse
	unmarshal(t, body, &codedPr)
	if len(codedPr.Results) != 1 || len(codedPr.Results[0].Values) != 1 {
		t.Fatalf("coded predict results: %s", body)
	}

	// Sweep.
	resp, body = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Model: "m1", Response: "packets", Factor: "period", Points: 7,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sw SweepResponse
	unmarshal(t, body, &sw)
	if len(sw.X) != 7 || len(sw.Y) != 7 || sw.X[0] != 2 || sw.X[6] != 20 {
		t.Fatalf("sweep curve: %s", body)
	}

	// Optimize.
	resp, body = postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{
		Model: "m1", Response: "stored_energy_J", Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d %s", resp.StatusCode, body)
	}
	var or OptimizeResponse
	unmarshal(t, body, &or)
	if len(or.Coded) != 4 || len(or.Natural) != 4 || or.Evals == 0 {
		t.Fatalf("optimize result: %s", body)
	}
	for i, c := range or.Coded {
		if c < -1-1e-9 || c > 1+1e-9 {
			t.Fatalf("optimum escaped the box at %d: %v", i, or.Coded)
		}
	}

	// Validate with confirming simulations.
	resp, body = postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Model: "m1", N: 2, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("validate: %d %s", resp.StatusCode, body)
	}
	var vr ValidateResponse
	unmarshal(t, body, &vr)
	if vr.N != 2 || len(vr.Rows) == 0 || vr.SimMillis <= 0 {
		t.Fatalf("validate report: %s", body)
	}

	// Jobs list shows the one finished job.
	resp, body = get(t, ts.URL+"/v1/jobs")
	var jl struct {
		Jobs []JobView `json:"jobs"`
	}
	unmarshal(t, body, &jl)
	if len(jl.Jobs) != 1 || jl.Jobs[0].State != string(JobDone) {
		t.Fatalf("jobs list: %s", body)
	}

	// Metrics recorded all of it: non-zero request counts and latency
	// histogram buckets.
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`ehdoed_requests_total{endpoint="predict"} 2`,
		`ehdoed_requests_total{endpoint="build"} 1`,
		`ehdoed_requests_total{endpoint="sweep"} 1`,
		`ehdoed_requests_total{endpoint="optimize"} 1`,
		`ehdoed_requests_total{endpoint="validate"} 1`,
		`ehdoed_request_latency_seconds_count{endpoint="predict"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `ehdoed_request_latency_seconds_bucket{endpoint="predict",le="+Inf"} 2`) {
		t.Fatalf("latency buckets not populated:\n%s", text)
	}

	// Delete, then the model is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/m1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict", PredictRequest{Model: "m1", Point: []float64{5, 0.05, 3, 0}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after delete: %d %s", resp.StatusCode, body)
	}
}

// TestUploadAndPredict exercises the hot-swap upload path.
func TestUploadAndPredict(t *testing.T) {
	ss := fixture(t)
	_, ts := newTestServer(t, Config{})

	data, err := ss.Encode()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/uploaded", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}

	// Re-upload swaps in place and reports 200.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/models/uploaded", bytes.NewReader(data))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload: %d", resp.StatusCode)
	}

	presp, pbody := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Model: "uploaded", Point: []float64{5, 0.05, 3.0, 0},
	})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", presp.StatusCode, pbody)
	}

	// Garbage upload is rejected.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/models/bad", strings.NewReader(`{"not":"surfaces"}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad upload: %d", resp.StatusCode)
	}
}

// TestErrorPaths checks the contract on malformed and missing inputs.
func TestErrorPaths(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
		code   string
	}{
		{"malformed predict JSON", "POST", "/v1/predict", `{"model":`, http.StatusBadRequest, codeInvalidRequest},
		{"trailing garbage", "POST", "/v1/predict", `{"model":"m","point":[5,0.05,3,0]} extra`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown model predict", "POST", "/v1/predict", `{"model":"nope","point":[5,0.05,3,0]}`, http.StatusNotFound, codeNotFound},
		{"no points", "POST", "/v1/predict", `{"model":"m"}`, http.StatusBadRequest, codeInvalidRequest},
		{"bad units", "POST", "/v1/predict", `{"model":"m","point":[5,0.05,3,0],"units":"furlongs"}`, http.StatusBadRequest, codeInvalidRequest},
		{"wrong dimension", "POST", "/v1/predict", `{"model":"m","point":[5,0.05]}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown response", "POST", "/v1/predict", `{"model":"m","point":[5,0.05,3,0],"responses":["nope"]}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown model sweep", "POST", "/v1/sweep", `{"model":"nope","response":"packets","factor":"period"}`, http.StatusNotFound, codeNotFound},
		{"unknown factor sweep", "POST", "/v1/sweep", `{"model":"m","response":"packets","factor":"nope"}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown response sweep", "POST", "/v1/sweep", `{"model":"m","response":"nope","factor":"period"}`, http.StatusBadRequest, codeInvalidRequest},
		{"bad at-factor sweep", "POST", "/v1/sweep", `{"model":"m","response":"packets","factor":"period","at":{"nope":1}}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown response optimize", "POST", "/v1/optimize", `{"model":"m","response":"nope"}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown model optimize", "POST", "/v1/optimize", `{"model":"nope","response":"packets"}`, http.StatusNotFound, codeNotFound},
		{"unknown model validate", "POST", "/v1/validate", `{"model":"nope"}`, http.StatusNotFound, codeNotFound},
		{"validate n too large", "POST", "/v1/validate", `{"model":"m","n":100000}`, http.StatusBadRequest, codeInvalidRequest},
		{"validate negative excite", "POST", "/v1/validate", `{"model":"m","excite":-1}`, http.StatusBadRequest, codeInvalidRequest},
		{"validate negative horizon", "POST", "/v1/validate", `{"model":"m","horizon_s":-5}`, http.StatusBadRequest, codeInvalidRequest},
		{"build without model", "POST", "/v1/build", `{"design":"ccf"}`, http.StatusBadRequest, codeInvalidRequest},
		{"build unknown design", "POST", "/v1/build", `{"model":"x","design":"nope"}`, http.StatusBadRequest, codeInvalidRequest},
		{"build negative excite", "POST", "/v1/build", `{"model":"x","excite":-0.5}`, http.StatusBadRequest, codeInvalidRequest},
		{"unknown job", "GET", "/v1/jobs/job-999999", "", http.StatusNotFound, codeNotFound},
		{"unknown model get", "GET", "/v1/models/nope", "", http.StatusNotFound, codeNotFound},
		{"jobs bad state", "GET", "/v1/jobs?state=flying", "", http.StatusBadRequest, codeInvalidRequest},
		{"jobs bad limit", "GET", "/v1/jobs?limit=zero", "", http.StatusBadRequest, codeInvalidRequest},
		{"jobs negative limit", "GET", "/v1/jobs?limit=-3", "", http.StatusBadRequest, codeInvalidRequest},
		{"jobs unknown cursor", "GET", "/v1/jobs?after=job-424242", "", http.StatusBadRequest, codeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: got %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.want, body)
			}
			if tc.want >= 400 {
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
					t.Fatalf("error payload not uniform: %s", body)
				}
				if eb.Code != tc.code {
					t.Fatalf("error code %q, want %q (%s)", eb.Code, tc.code, body)
				}
			}
		})
	}

	// Errors show up in the error counters.
	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `ehdoed_request_errors_total{endpoint="predict"}`) {
		t.Fatalf("error counter missing:\n%s", body)
	}
}

// TestPredictMatchesDirectEvaluation pins the served numbers to the
// library: the HTTP path must return exactly what SavedSurfaces computes.
func TestPredictMatchesDirectEvaluation(t *testing.T) {
	ss := fixture(t)
	srv, ts := newTestServer(t, Config{})
	srv.Registry().Set("m", ss)

	nat := []float64{7, 0.04, 3.1, 0.1}
	resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Model: "m", Point: nat})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	unmarshal(t, body, &pr)
	for _, id := range ss.Responses() {
		want, err := ss.PredictNatural(id, nat)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := pr.Results[0].Values[string(id)]
		if !ok {
			t.Fatalf("response %s missing", id)
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: served %v, library %v", id, got, want)
		}
	}
}

// TestHealthzAndModelCount checks the liveness payload tracks the registry.
func TestHealthzAndModelCount(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	_, body := get(t, ts.URL+"/healthz")
	var h struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	unmarshal(t, body, &h)
	if h.Status != "ok" || h.Models != 0 {
		t.Fatalf("healthz: %s", body)
	}
	srv.Registry().Set("m", fixture(t))
	_, body = get(t, ts.URL+"/healthz")
	unmarshal(t, body, &h)
	if h.Models != 1 {
		t.Fatalf("healthz after register: %s", body)
	}
}

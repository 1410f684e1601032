package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/opt"
	"repro/internal/simcache"
)

// The reference* functions below are copies of the loops handleSweep,
// handleOptimize and handleValidate ran before the handlers called core's
// SavedSurfaces.Sweep, Optimize and Validate. They take the request with
// its defaults already applied and return the response the old handler
// encoded.

func referenceSweep(ss *core.SavedSurfaces, req SweepRequest) SweepResponse {
	pred, _ := ss.Predictor(core.ResponseID(req.Response))
	fi := ss.FactorIndex(req.Factor)
	base, _ := basePoint(ss, req.At)
	f := ss.Factors[fi]
	n := req.Points
	resp := SweepResponse{
		Model: req.Model, Response: req.Response, Factor: f.Name, Unit: f.Unit,
		X: make([]float64, n), Y: make([]float64, n),
	}
	coded := make([]float64, len(base))
	for j, v := range base {
		coded[j] = ss.Factors[j].Encode(v)
	}
	for i := 0; i < n; i++ {
		x := f.Min + float64(i)/float64(n-1)*(f.Max-f.Min)
		coded[fi] = f.Encode(x)
		resp.X[i] = x
		resp.Y[i] = pred(coded)
	}
	return resp
}

func referenceOptimize(ss *core.SavedSurfaces, req OptimizeRequest) OptimizeResponse {
	pred, _ := ss.Predictor(core.ResponseID(req.Response))
	obj := opt.Objective(pred)
	if !req.Minimize {
		obj = opt.Maximize(obj)
	}
	bounds := opt.NewBounds(len(ss.Factors))
	rng := rand.New(rand.NewSource(req.Seed))
	var best *opt.Result
	evals := 0
	for i := 0; i < req.Starts; i++ {
		res, err := opt.NelderMead(obj, bounds, bounds.Random(rng), opt.NelderMeadConfig{MaxIters: 400})
		if err != nil {
			panic(err)
		}
		evals += res.Evals
		if best == nil || res.F < best.F {
			best = res
		}
	}
	natural := make([]float64, len(best.X))
	for i, f := range ss.Factors {
		natural[i] = f.Decode(best.X[i])
	}
	return OptimizeResponse{
		Model: req.Model, Response: req.Response, Minimize: req.Minimize,
		Natural: natural, Coded: best.X, Predicted: pred(best.X), Evals: evals,
	}
}

func referenceValidate(t *testing.T, ss *core.SavedSurfaces, p *core.Problem, req ValidateRequest) ValidateResponse {
	var ids []core.ResponseID
	for _, id := range ss.Responses() {
		for _, pid := range p.Responses {
			if id == pid {
				ids = append(ids, id)
				break
			}
		}
	}
	n := req.N
	rng := rand.New(rand.NewSource(req.Seed))
	points := make([][]float64, n)
	for i := range points {
		x := make([]float64, len(ss.Factors))
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		points[i] = x
	}
	sums := make(map[core.ResponseID]float64, len(ids))
	maxs := make(map[core.ResponseID]float64, len(ids))
	for i := 0; i < n; i++ {
		x := points[i]
		sim, err := p.ResponsesAt(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			pred, err := ss.Predict(id, x)
			if err != nil {
				t.Fatal(err)
			}
			e := math.Abs(pred - sim[id])
			sums[id] += e
			if e > maxs[id] {
				maxs[id] = e
			}
		}
	}
	resp := ValidateResponse{Model: req.Model, N: n, Engine: EngineFast}
	for _, id := range ids {
		resp.Rows = append(resp.Rows, ValidateRow{
			Response:   string(id),
			MeanAbsErr: sums[id] / float64(n),
			MaxAbsErr:  maxs[id],
			PRESS:      ss.PRESS[id],
			R2Pred:     ss.R2Pred[id],
		})
	}
	return resp
}

// oddModel is a non-standard saved model: its own factor names and ranges
// (k factors), a basis of every term up to total degree 3 with each power
// ≤ 2, seeded coefficients, and responses the standard problem simulates
// (stored_energy_J, packets) next to one it never does (final_store_V).
func oddModel(k int, seed int64) *core.SavedSurfaces {
	rng := rand.New(rand.NewSource(seed))
	ss := &core.SavedSurfaces{DesignName: fmt.Sprintf("odd%d", k), Runs: 30, Horizon: 2,
		Coef: map[core.ResponseID][]float64{}, R2: map[core.ResponseID]float64{},
		PRESS: map[core.ResponseID]float64{}, R2Pred: map[core.ResponseID]float64{}}
	for j := 0; j < k; j++ {
		lo := rng.Float64() * 10
		ss.Factors = append(ss.Factors, doe.Factor{Name: fmt.Sprintf("f%d", j), Min: lo, Max: lo + 0.5 + rng.Float64()*5, Unit: "u"})
	}
	var terms func(prefix []int, left int)
	terms = func(prefix []int, left int) {
		if len(prefix) == k {
			ss.Terms = append(ss.Terms, append([]int(nil), prefix...))
			return
		}
		for pw := 0; pw <= min(2, left); pw++ {
			terms(append(prefix, pw), left-pw)
		}
	}
	terms(nil, 3)
	for _, id := range []core.ResponseID{core.RespStoredEnergy, core.RespPackets, core.RespFinalStoreV} {
		c := make([]float64, len(ss.Terms))
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		ss.Coef[id] = c
		ss.R2[id], ss.PRESS[id], ss.R2Pred[id] = rng.Float64(), rng.Float64()*3, rng.Float64()
	}
	return ss
}

// postRaw posts a JSON body and returns the status and the raw response
// bytes.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// encoded is what writeJSON sends for v.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var simMillis = regexp.MustCompile(`"sim_ms":[0-9.e+-]+`)

// TestSurfaceHandlersMatchReferenceLoops pins the bytes /v1/optimize,
// /v1/sweep and /v1/validate answer to the loops the handlers ran before
// they called core, on the k=4 fixture and on non-standard models, over
// several seeds. Validate's sim_ms is a timing and is compared as 0.
func TestSurfaceHandlersMatchReferenceLoops(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	models := map[string]*core.SavedSurfaces{
		"ccf4": fixture(t),
		"odd3": oddModel(3, 11),
		"odd4": oddModel(4, 12),
	}
	for name, ss := range models {
		srv.Registry().Set(name, ss)
	}
	seeds := []int64{0, 1, 7, 42}
	for name, ss := range models {
		for _, id := range []core.ResponseID{core.RespStoredEnergy, core.RespPackets} {
			for _, seed := range seeds {
				for _, starts := range []int{0, 1, 3} {
					for _, minimize := range []bool{false, true} {
						req := OptimizeRequest{Model: name, Response: string(id), Minimize: minimize, Starts: starts, Seed: seed}
						status, got := postRaw(t, ts.URL+"/v1/optimize", req)
						if req.Starts == 0 {
							req.Starts = 6
						}
						want := encoded(t, referenceOptimize(ss, req))
						if status != http.StatusOK || !bytes.Equal(got, want) {
							t.Fatalf("optimize %+v: %d\n got %s\nwant %s", req, status, got, want)
						}
					}
				}
			}
			for fi, f := range ss.Factors {
				for _, points := range []int{0, 2, 7} {
					req := SweepRequest{Model: name, Response: string(id), Factor: f.Name, Points: points,
						At: map[string]float64{ss.Factors[(fi+1)%len(ss.Factors)].Name: ss.Factors[(fi+1)%len(ss.Factors)].Min}}
					status, got := postRaw(t, ts.URL+"/v1/sweep", req)
					if req.Points == 0 {
						req.Points = 21
					}
					want := encoded(t, referenceSweep(ss, req))
					if status != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("sweep %+v: %d\n got %s\nwant %s", req, status, got, want)
					}
				}
			}
		}
	}

	// Validate simulates on the server's problem; the reference runs the
	// same problem on a cache of its own.
	for _, name := range []string{"ccf4", "odd4"} {
		ss := models[name]
		p := core.StandardProblem(0.6, ss.Horizon)
		p.Runner = simcache.New(simcache.Options{})
		for _, seed := range []int64{1, 7, 42} {
			req := ValidateRequest{Model: name, N: 3, Seed: seed}
			status, got := postRaw(t, ts.URL+"/v1/validate", req)
			want := encoded(t, referenceValidate(t, ss, p, req))
			got = simMillis.ReplaceAll(got, []byte(`"sim_ms":0`))
			if status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("validate %+v: %d\n got %s\nwant %s", req, status, got, want)
			}
		}
	}
	// odd3 has three factors: the server problem has four.
	status, body := postRaw(t, ts.URL+"/v1/validate", ValidateRequest{Model: "odd3", N: 2})
	var env errorBody
	unmarshal(t, body, &env)
	if status != http.StatusConflict || env.Code != codeConflict {
		t.Fatalf("3-factor validate: %d %s", status, body)
	}
}

// TestValidateSharesNoResponses: a model whose only response the server
// problem never simulates is a 409 conflict.
func TestValidateSharesNoResponses(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	ss := oddModel(4, 3)
	ss.Factors = fixture(t).Factors
	for id := range ss.Coef {
		if id != core.RespFinalStoreV {
			delete(ss.Coef, id)
		}
	}
	srv.Registry().Set("extra-only", ss)
	status, body := postRaw(t, ts.URL+"/v1/validate", ValidateRequest{Model: "extra-only", N: 2})
	var env errorBody
	unmarshal(t, body, &env)
	if status != http.StatusConflict || env.Code != codeConflict {
		t.Fatalf("no shared response: %d %s", status, body)
	}
}

// TestValidateClientGoneAborts: a request whose context has ended is
// answered 499 client_closed before any simulation runs.
func TestValidateClientGoneAborts(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))
	data, _ := json.Marshal(ValidateRequest{Model: "m", N: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/validate", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	var env errorBody
	unmarshal(t, rec.Body.Bytes(), &env)
	if rec.Code != statusClientClosedRequest || env.Code != codeClientClosed || env.Error != "validation aborted: context canceled" {
		t.Fatalf("got %d %s", rec.Code, rec.Body.Bytes())
	}
}

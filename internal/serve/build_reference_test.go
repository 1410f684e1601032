package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/rsm"
	"repro/internal/simcache"
)

// TestFixedBuildMatchesReference pins fixed builds against a model built
// independently of the build pipeline: the test simulates every point of
// the CCF design one by one, fits each response with rsm.FitModel and
// saves the result with SaveWithData. The model a fixed /v1/build
// registers must encode to the same bytes on the real engine, for one and
// two workers, on both local executors: the fast engine and its batch
// synonym behind the server's fresh simulation cache run the lockstep
// executor, and a problem wired to simcache.Direct{} takes the per-point
// path.
func TestFixedBuildMatchesReference(t *testing.T) {
	const amp, horizon = 0.6, 2.0
	want := referenceModel(t, amp, horizon)
	direct := func(excite, horizon float64) *core.Problem {
		p := core.StandardProblem(excite, horizon)
		p.Runner = simcache.Direct{}
		return p
	}
	for _, engine := range []string{EngineFast, EngineBatch, "per-point"} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", engine, workers), func(t *testing.T) {
				// A fresh server (and cache) per case, so every build
				// simulates its points instead of replaying another's.
				cfg := Config{QueueCap: 1}
				req := BuildRequest{
					Model: "ref", Design: "ccf", Engine: engine,
					Workers: workers, Excite: amp, Horizon: horizon, Seed: 1,
				}
				if engine == "per-point" {
					cfg.Problem, req.Engine = direct, EngineFast
				}
				srv, ts := newTestServer(t, cfg)
				job := fleetBuild(t, ts.URL, req)
				done := pollJob(t, ts.URL, job.ID)
				if done.State != string(JobDone) {
					t.Fatalf("build did not finish: %+v", done)
				}
				if engine == "per-point" {
					if done.Batch != nil {
						t.Fatalf("per-point build ran lanes: %+v", done.Batch)
					}
				} else if done.Batch == nil || done.Batch.Lanes != 25 {
					t.Fatalf("lockstep build did not simulate its 25 unique points as lanes: %+v", done.Batch)
				}
				ss, ok := srv.Registry().Get("ref")
				if !ok {
					t.Fatal("built model not registered")
				}
				got, err := ss.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("registered model differs from the reference (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// referenceModel builds the encoded fixed-CCF model of the standard
// problem without the build pipeline.
func referenceModel(t *testing.T, amp, horizon float64) []byte {
	t.Helper()
	p := core.StandardProblem(amp, horizon)
	p.Runner = simcache.Direct{}
	k := len(p.Factors)
	design, err := doe.CentralComposite(k, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds := &core.Dataset{Design: design, Y: map[core.ResponseID][]float64{}}
	for _, x := range design.Runs {
		resp, err := p.ResponsesAt(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range p.Responses {
			ds.Y[id] = append(ds.Y[id], resp[id])
		}
	}
	model := rsm.FullQuadratic(k)
	s := &core.Surfaces{Problem: p, Model: model, Fits: map[core.ResponseID]*rsm.Fit{}}
	for _, id := range p.Responses {
		fit, err := rsm.FitModel(model, design.Runs, ds.Y[id])
		if err != nil {
			t.Fatal(err)
		}
		s.Fits[id] = fit
	}
	data, err := s.SaveWithData(ds).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

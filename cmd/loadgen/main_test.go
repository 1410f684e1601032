package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rsm"
	"repro/internal/serve"
)

func testModel(t *testing.T) *core.SavedSurfaces {
	t.Helper()
	p := core.StandardProblem(0.6, 1)
	design, err := core.NamedDesign("ccf", len(p.Factors), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(len(p.Factors)))
	if err != nil {
		t.Fatal(err)
	}
	return s.Save(design.Name, design.N())
}

// TestRunSmoke drives the whole generator path — mix parsing, model
// discovery, target construction, open-loop arrivals — against an
// in-process server. This is the CI loadgen smoke.
func TestRunSmoke(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Registry().Set("smoke", testModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(5 * time.Second)
	}()

	rep, err := run(context.Background(), config{
		url:      ts.URL,
		model:    "smoke",
		mix:      "predict=0.7,sweep=0.2,healthz=0.1",
		qps:      200,
		duration: 300 * time.Millisecond,
		timeout:  2 * time.Second,
		seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 {
		t.Fatal("open loop offered nothing")
	}
	if rep.Served == 0 {
		t.Fatalf("nothing served: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed outright: %+v", rep.Failed, rep)
	}
	if rep.Served+rep.Shed != rep.Offered {
		t.Fatalf("served %d + shed %d != offered %d", rep.Served, rep.Shed, rep.Offered)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P99 < rep.Latency.P50 {
		t.Fatalf("implausible latency quantiles: %+v", rep.Latency)
	}
	total := 0
	for _, n := range rep.ByTarget {
		total += n
	}
	if total != rep.Offered {
		t.Fatalf("per-target counts %d != offered %d", total, rep.Offered)
	}
}

func TestRunRequiresModelForModelTargets(t *testing.T) {
	_, err := run(context.Background(), config{mix: "predict=1", qps: 1, duration: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "needs -model") {
		t.Fatalf("want needs -model error, got %v", err)
	}
}

func TestParseMix(t *testing.T) {
	w, err := parseMix("predict=0.8, sweep=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if w["predict"] != 0.8 || w["sweep"] != 0.2 {
		t.Fatalf("weights wrong: %v", w)
	}
	for _, bad := range []string{"", "predict", "predict=0", "predict=-1", "launch=1", "predict=x"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("mix %q must be rejected", bad)
		}
	}
}

// Cross-package integration test: the complete design flow of the paper,
// exercised end to end through the public seams of every layer — physics
// (harvester → power → node via sim), statistics (doe → rsm), and the
// flow facade (core) — with final numbers checked against fresh
// simulations.
package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/explore"
	"repro/internal/opt"
	"repro/internal/rsm"
)

func TestEndToEndDesignFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end flow runs ~40 simulations")
	}
	p := core.StandardProblem(0.6, 20)
	k := len(p.Factors)

	// Phase 1: the designed experiment, run in parallel.
	design, err := doe.CentralComposite(k, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: surfaces for every indicator.
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(k))
	if err != nil {
		t.Fatal(err)
	}
	fit := s.Fits[core.RespStoredEnergy]
	if fit.R2 < 0.99 {
		t.Fatalf("stored-energy surface R² = %v", fit.R2)
	}

	// Phase 3: diagnostics on the fitted surface — replicated centre
	// points enable the lack-of-fit test; no run should be an outlier.
	if lof, err := fit.LackOfFitTest(design.Runs, ds.Y[core.RespStoredEnergy]); err != nil {
		t.Fatalf("lack-of-fit unavailable: %v", err)
	} else if lof.Replicates == 0 {
		t.Fatal("CCD centre replication not detected")
	}
	// Influence diagnostics must be well-defined for every run. (Outlier
	// thresholds are not asserted here: with a deterministic simulator the
	// residual σ is nearly zero, so any model bias inflates studentized
	// residuals — the statistic is meaningful under replication noise.)
	cooks := fit.CooksDistances()
	if len(cooks) != design.N() {
		t.Fatalf("Cook's distances: %d values for %d runs", len(cooks), design.N())
	}
	for i, c := range cooks {
		if math.IsNaN(c) || c < 0 {
			t.Fatalf("bad Cook's distance %v at run %d", c, i)
		}
	}

	// Phase 4: instant exploration — the Pareto front over the surfaces
	// must contain an energy-positive design.
	evPk, err := s.Evaluator(core.RespPackets)
	if err != nil {
		t.Fatal(err)
	}
	evMg, err := s.Evaluator(core.RespNetMargin)
	if err != nil {
		t.Fatal(err)
	}
	var grid [][]float64
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			grid = append(grid, []float64{-1 + 0.25*float64(i), 0, -1 + 0.25*float64(j), 0})
		}
	}
	cands := explore.EvaluateAll(grid, []explore.Evaluator{evPk, evMg})
	front := explore.ParetoFront(cands)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}

	// Phase 5: single-response optimum, confirmed against the simulator.
	best, err := s.Optimize(context.Background(), core.RespStoredEnergy, true, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.RelError > 0.05 {
		t.Fatalf("surface optimum off by %.1f%% against simulation", 100*best.RelError)
	}

	// Phase 6: multi-response compromise via desirability, also confirmed.
	goals := []core.DesirabilityGoal{
		{Response: core.RespPackets, Shape: opt.Larger{Lo: 0, Hi: 8}},
		{Response: core.RespNetMargin, Shape: opt.Larger{Lo: -4, Hi: 0.5}, Weight: 2},
	}
	comp, err := s.OptimizeDesirability(context.Background(), goals, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Score <= 0 {
		t.Fatal("no feasible compromise found")
	}
	if math.Abs(comp.Score-comp.Confirmed) > 0.5 {
		t.Fatalf("desirability prediction %v vs confirmed %v: surfaces useless", comp.Score, comp.Confirmed)
	}

	// Phase 7: persistence round trip keeps predicting identically.
	saved := s.SaveWithData(ds)
	data, err := saved.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeSurfaces(data)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2, 0.4, 0}
	live := fit.Predict(probe)
	loaded, err := back.Predict(core.RespStoredEnergy, probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(live-loaded) > 1e-12*(1+math.Abs(live)) {
		t.Fatalf("persistence drift: %v vs %v", live, loaded)
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/simcache"
)

// Gates of the adaptive-vs-fixed comparison: the sequential build must
// skip at least minSavings of the fixed reference's simulations on every
// workload, and its held-out validation R² may trail the fixed build's by
// at most valTol — savings that cost model quality are not savings.
const (
	minSavings = 0.40
	valTol     = 0.02
)

// benchAdaptiveSavings measures what the sequential D-optimal build
// strategy saves over the fixed-design flow. Two six-factor scenario-grid
// workloads (WideProblem subregions centred on the T1 and T6 excitation
// levels) are each built twice — fixed CCF reference and adaptive — and
// both models are scored on the same 100 held-out simulations. The
// simulation-count savings go into the report as the drift-gated
// adaptive_sim_savings ratio; the per-workload points and validation R²
// land as ungated stats.
func benchAdaptiveSavings(r *benchkit.Report) error {
	ctx := context.Background()
	workloads := []struct {
		name string
		ampC float64 // coded centre of the amp factor (0 → 0.8, 0.5 → 1.0 m/s²)
	}{
		{"amp_mid", 0},
		{"amp_high", 0.5},
	}
	var sumSavings float64
	for _, w := range workloads {
		p, err := adaptiveWorkload(w.ampC)
		if err != nil {
			return err
		}
		k := len(p.Factors)

		// Held-out truth: 100 uniform coded points, simulated once.
		pts := randomCoded(k, 100, 99)
		truth := map[core.ResponseID][]float64{}
		for _, x := range pts {
			resp, err := p.ResponsesAt(ctx, x)
			if err != nil {
				return fmt.Errorf("adaptive bench: validation sim: %w", err)
			}
			for _, id := range p.Responses {
				truth[id] = append(truth[id], resp[id])
			}
		}

		// Fixed reference: the full CCF design, built as `ehdoe build` would.
		design, err := core.NamedDesign("ccf", k, 0, 4)
		if err != nil {
			return err
		}
		fixed, err := core.Build(ctx, core.BuildSpec{Problem: p, Design: design})
		if err != nil {
			return fmt.Errorf("adaptive bench: fixed build: %w", err)
		}
		fixedVal, err := minValidationR2(p, fixed.Surfaces, pts, truth)
		if err != nil {
			return err
		}

		// Adaptive build on a fresh problem (own cache) so its simulation
		// count is not subsidised by the fixed build's cache entries.
		p2, err := adaptiveWorkload(w.ampC)
		if err != nil {
			return err
		}
		res, err := core.Build(ctx, core.BuildSpec{Problem: p2, Adaptive: &core.AdaptiveConfig{Seed: 4}})
		if err != nil {
			return fmt.Errorf("adaptive bench: adaptive build: %w", err)
		}
		adaptVal, err := minValidationR2(p2, res.Surfaces, pts, truth)
		if err != nil {
			return err
		}

		st := res.Adaptive
		savings := 1 - float64(st.PointsSimulated)/float64(st.FixedPoints)
		fmt.Printf("adaptive %-9s %d of %d points (%.1f%% saved, stop: %s), val R²min adaptive %.4f vs fixed %.4f\n",
			w.name, st.PointsSimulated, st.FixedPoints, 100*savings, st.StopReason, adaptVal, fixedVal)
		if st.StopReason != core.StopConverged {
			return fmt.Errorf("adaptive bench: %s stopped on %q, not convergence — the lack-of-fit/R² rule never fired",
				w.name, st.StopReason)
		}
		if savings < minSavings {
			return fmt.Errorf("adaptive bench: %s saved only %.1f%% of %d simulations (gate: ≥%.0f%%)",
				w.name, 100*savings, st.FixedPoints, 100*minSavings)
		}
		if adaptVal < fixedVal-valTol {
			return fmt.Errorf("adaptive bench: %s validation R² %.4f trails fixed %.4f by more than %.2f",
				w.name, adaptVal, fixedVal, valTol)
		}
		r.SetStat("adaptive_points_"+w.name, float64(st.PointsSimulated))
		r.SetStat("adaptive_valr2_"+w.name, adaptVal)
		r.SetStat("fixed_valr2_"+w.name, fixedVal)
		sumSavings += savings
	}
	r.SetSpeedup("adaptive_sim_savings", sumSavings/float64(len(workloads)))
	return nil
}

// adaptiveWorkload is one benchmark workload: the six-factor wide problem
// shrunk to 40% of its range around a coded excitation-amplitude centre —
// the locality a sequential-RSM flow would actually refine in.
func adaptiveWorkload(ampC float64) (*core.Problem, error) {
	p, err := core.WideProblem(1.0).Subregion([]float64{0, 0, 0, 0, ampC, 0}, 0.4)
	if err != nil {
		return nil, err
	}
	p.Runner = simcache.New(simcache.Options{})
	return p, nil
}

// randomCoded returns n uniform points in the coded cube [-1, 1]^k.
func randomCoded(k, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		x := make([]float64, k)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		pts[i] = x
	}
	return pts
}

// minValidationR2 scores surfaces against held-out simulations and returns
// the worst R² across the problem's responses.
func minValidationR2(p *core.Problem, s *core.Surfaces, pts [][]float64, truth map[core.ResponseID][]float64) (float64, error) {
	min := 2.0
	for _, id := range p.Responses {
		ys := truth[id]
		var mean float64
		for _, y := range ys {
			mean += y
		}
		mean /= float64(len(ys))
		var ssErr, ssTot float64
		for i, x := range pts {
			pred, err := s.Predict(id, x)
			if err != nil {
				return 0, err
			}
			ssErr += (ys[i] - pred) * (ys[i] - pred)
			ssTot += (ys[i] - mean) * (ys[i] - mean)
		}
		if r2 := 1 - ssErr/ssTot; r2 < min {
			min = r2
		}
	}
	return min, nil
}

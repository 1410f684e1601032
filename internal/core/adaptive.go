package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/doe"
	"repro/internal/obs"
	"repro/internal/rsm"
)

// Build strategies. "fixed" simulates a whole named design up front (the
// original flow, bit-identical to previous releases); "adaptive" grows the
// design sequentially, adding D-optimal points only while they still
// improve the surfaces (BuildSpec.Adaptive).
const (
	StrategyFixed    = "fixed"
	StrategyAdaptive = "adaptive"
)

// FixedEquivalentPoints returns the run count of the fixed-strategy
// reference design — the "ccf" default of 2^k corners, 2k axial points and
// 3 centre runs — that an adaptive build's savings are measured against.
func FixedEquivalentPoints(k int) int { return 1<<uint(k) + 2*k + 3 }

// adaptiveMaxPasses caps the Fedorov exchange passes of the per-round
// D-optimal selections. The full 20-pass default squeezes the last fraction
// of det(XᵀX) out of a one-shot design, but here each round only steers
// where the *next* simulations land: on the k=6 five-level lattice (15625
// candidates) 4 passes come within 2% of the 20-pass D-efficiency. Most of
// the exchange's cost is refreshing d(x) after the swaps the first passes
// commit, so the cap saves only a tenth to a fifth of the selection time
// there, and little on k=4.
const adaptiveMaxPasses = 4

// The stopping rule's gates. A round's lack of fit is adequate when the
// F-test fails to reject it at lackAlpha (when the test is defined), or
// when LackSS ≤ lackFraction·TotalSS. The relative bound is the
// deterministic simulator's escape hatch: bit-identical replicates make
// pure error exactly zero, so the F-test degenerates to "any lack is
// infinitely significant" and the unexplained systematic fraction has to
// stand in. Lack also counts as adequate once it improves by less than
// lackTol between rounds — the surface is as adequate as the polynomial
// basis will get. The loop then stops once a round improves the
// worst-case adjusted R² by less than adjR2Tol and the worst-case
// R²-pred by less than r2PredTol. R²-pred (= 1 − PRESS/TotalSS) is the
// scale-free form of PRESS: raw PRESS grows with every appended point
// simply because TotalSS does, so a threshold on it would chase its own
// tail and never fire.
const (
	lackAlpha    = 0.05
	lackFraction = 0.02
	lackTol      = 0.005
	adjR2Tol     = 0.02
	r2PredTol    = 0.1
)

// AdaptiveConfig tunes the sequential build loop. The zero value picks
// defaults suitable for the full-quadratic models the toolkit fits; the
// model, worker count and executor come from the BuildSpec.
type AdaptiveConfig struct {
	// CandidateLevels is the per-factor resolution of the quantized
	// candidate lattice (default 5 → levels −1, −0.5, 0, 0.5, 1 — the
	// opt.Quantized step-0.25 grid, so optimizer revisits hit the simcache).
	CandidateLevels int
	// InitialPoints is the size of the round-0 D-optimal design
	// (default p+2). CenterReplicates centre copies are appended on top
	// (default 2) so the lack-of-fit decomposition has pure-error DoF.
	InitialPoints    int
	CenterReplicates int
	// BatchPoints is the number of D-optimal augmentation points added per
	// round (default k).
	BatchPoints int
	// MinPoints and MaxPoints bound the total budget. The loop never stops
	// below MinPoints (default: the initial design plus one augmentation
	// round) and always stops at MaxPoints (default: the fixed-strategy
	// reference count, so an adaptive build never costs more than fixed).
	MinPoints int
	MaxPoints int
	// Seed feeds the initial D-optimal selection.
	Seed int64
}

func (c *AdaptiveConfig) setDefaults(k int, model rsm.Model) {
	p := model.P()
	if c.CandidateLevels < 2 {
		c.CandidateLevels = 5
	}
	if c.InitialPoints <= 0 {
		c.InitialPoints = p + 2
	}
	if c.InitialPoints < p {
		c.InitialPoints = p
	}
	if c.CenterReplicates < 0 {
		c.CenterReplicates = 0
	} else if c.CenterReplicates == 0 {
		c.CenterReplicates = 2
	}
	if c.BatchPoints <= 0 {
		c.BatchPoints = k
	}
	if c.MinPoints <= 0 {
		c.MinPoints = c.InitialPoints + c.CenterReplicates + c.BatchPoints
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = FixedEquivalentPoints(k)
	}
	if c.MaxPoints < c.MinPoints {
		c.MaxPoints = c.MinPoints
	}
}

// AdaptiveRound is one round's worth of per-round statistics, echoed into
// JobView so API clients can watch a build converge.
type AdaptiveRound struct {
	Round  int `json:"round"`
	Added  int `json:"added"`  // points simulated this round
	Points int `json:"points"` // cumulative points
	// Worst-case fit quality across the problem's responses.
	MinR2     float64 `json:"min_r2"`
	MinAdjR2  float64 `json:"min_adj_r2"`
	MinR2Pred float64 `json:"min_r2_pred"`
	// WorstLackP is the smallest lack-of-fit p-value across responses, or
	// −1 when the F-test is undefined (no replication yet). WorstLackFrac
	// is the largest LackSS/TotalSS fraction.
	WorstLackP    float64 `json:"worst_lof_p"`
	WorstLackFrac float64 `json:"worst_lack_frac"`
}

// Adaptive stop reasons.
const (
	StopConverged = "converged"  // stopping rule satisfied
	StopMaxPoints = "max_points" // point budget exhausted first
)

// AdaptiveStats summarizes an adaptive build for JobView, metrics and the
// benchmark harness.
type AdaptiveStats struct {
	Rounds          []AdaptiveRound `json:"rounds"`
	PointsSimulated int             `json:"points_simulated"`
	FixedPoints     int             `json:"fixed_points"`   // fixed-strategy reference cost
	PointsSkipped   int             `json:"points_skipped"` // max(0, FixedPoints − PointsSimulated)
	StopReason      string          `json:"stop_reason"`
}

// roundQuality is the per-round convergence state across all responses.
type roundQuality struct {
	minR2, minAdjR2, minR2Pred float64
	worstLackP                 float64 // −1 when undefined
	worstLackFrac              float64
	lofOK                      bool // every response passes a lack-of-fit gate
}

// buildAdaptive grows a design sequentially: simulate a small D-optimal
// seed, refit everything simulated so far through BuildSurfaces, and keep
// adding the D-optimally most informative lattice points until the
// stopping rule — lack of fit acceptable AND adjusted-R²/PRESS improvement
// below threshold — fires, or the point budget runs out. Every round's
// simulations go through run, the same executor a fixed build uses, and
// the last round's fits are the build's surfaces, bit-identical to a batch
// fit of the returned dataset. The cumulative dataset's SimTime is
// the sum of its rounds' SimTime: design selection and refits between
// rounds are not simulation time.
func (p *Problem) buildAdaptive(ctx context.Context, cfg AdaptiveConfig, model rsm.Model,
	run func(context.Context, *doe.Design) (*Dataset, error)) (*BuildResult, error) {
	k := len(p.Factors)
	if k < 2 {
		return nil, fmt.Errorf("core: adaptive builds need ≥2 factors, got %d", k)
	}
	cfg.setDefaults(k, model)
	lg := obs.FromContext(ctx)

	candidates, err := doe.CandidateLattice(k, cfg.CandidateLevels)
	if err != nil {
		return nil, err
	}
	if cfg.InitialPoints > candidates.N() {
		return nil, fmt.Errorf("core: initial design (%d points) exceeds the %d-point candidate lattice; raise CandidateLevels", cfg.InitialPoints, candidates.N())
	}
	initial, err := doe.DOptimal(candidates, cfg.InitialPoints, model.Row, cfg.Seed, adaptiveMaxPasses)
	if err != nil {
		return nil, err
	}
	if cfg.CenterReplicates > 0 {
		centre := &doe.Design{Name: "centre", Runs: make([][]float64, cfg.CenterReplicates)}
		for i := range centre.Runs {
			centre.Runs[i] = make([]float64, k)
		}
		if initial, err = initial.Append(centre); err != nil {
			return nil, err
		}
	}

	cum := &Dataset{
		Design: &doe.Design{Name: fmt.Sprintf("adaptive(k=%d)", k)},
		Y:      make(map[ResponseID][]float64, len(p.Responses)),
	}
	stats := &AdaptiveStats{FixedPoints: FixedEquivalentPoints(k)}
	res := &BuildResult{Dataset: cum, Adaptive: stats}

	// absorb merges one round's dataset into the cumulative one.
	absorb := func(ds *Dataset) {
		cum.SimTime += ds.SimTime
		cum.SimWork += ds.SimWork
		cum.Retries += ds.Retries
		cum.PanicsRecovered += ds.PanicsRecovered
		if ds.Batch != nil {
			if cum.Batch == nil {
				cum.Batch = &BatchStats{}
			}
			cum.Batch.add(ds.Batch)
		}
		if ds.Y == nil {
			return
		}
		cum.Design.Runs = append(cum.Design.Runs, ds.Design.Runs...)
		for _, id := range p.Responses {
			cum.Y[id] = append(cum.Y[id], ds.Y[id]...)
		}
	}

	fail := func(err error) (*BuildResult, error) {
		// Even a failed build reports the points its completed rounds cost.
		stats.PointsSimulated = cum.Design.N()
		cum.Y = nil
		return res, err
	}

	// quality evaluates one round's fits of the cumulative dataset against
	// the stopping gates.
	quality := func(s *Surfaces) *roundQuality {
		q := &roundQuality{
			minR2: math.Inf(1), minAdjR2: math.Inf(1), minR2Pred: math.Inf(1),
			worstLackP: math.Inf(1), lofOK: true,
		}
		anyLackP := false
		for _, id := range p.Responses {
			fit, ys := s.Fits[id], cum.Y[id]
			// Near-constant response: the simulator answered (almost)
			// the same value everywhere, so TotalSS is rounding dust and
			// every R²/lack ratio is numerical noise, not information.
			// Any surface explains a constant — treat it as trivially
			// adequate instead of letting noise block convergence.
			var sumYY float64
			for _, y := range ys {
				sumYY += y * y
			}
			if fit.TotalSS <= 1e-12*math.Max(sumYY, 1e-300) {
				continue
			}
			q.minR2 = math.Min(q.minR2, fit.R2)
			q.minAdjR2 = math.Min(q.minAdjR2, fit.AdjR2)
			q.minR2Pred = math.Min(q.minR2Pred, fit.R2Pred)
			lackFrac := 0.0
			lofPass := false
			lof, lerr := fit.LackOfFitTest(cum.Design.Runs, ys)
			if lerr == nil {
				if fit.TotalSS > 0 {
					lackFrac = lof.LackSS / fit.TotalSS
				}
				if !math.IsNaN(lof.P) {
					anyLackP = true
					q.worstLackP = math.Min(q.worstLackP, lof.P)
					lofPass = lof.P >= lackAlpha
				}
			} else if fit.TotalSS > 0 {
				// No replication (or DoF exhausted): the F-test is
				// undefined; judge adequacy on the residual fraction alone.
				lackFrac = fit.ResidualSS / fit.TotalSS
			}
			q.worstLackFrac = math.Max(q.worstLackFrac, lackFrac)
			if !lofPass && lackFrac > lackFraction {
				q.lofOK = false
			}
		}
		if !anyLackP {
			q.worstLackP = -1
		}
		if math.IsInf(q.minR2, 1) {
			// Every response was near-constant: nothing left to learn.
			q.minR2, q.minAdjR2, q.minR2Pred = 1, 1, 1
		}
		return q
	}

	lg.Info("adaptive build started", "k", k, "initial", initial.N(),
		"batch", cfg.BatchPoints, "min", cfg.MinPoints, "max", cfg.MaxPoints)
	// Round 0 simulates the seed design; every later round the D-optimal
	// augmentation of everything simulated so far. Each round refits the
	// cumulative dataset, and the last round's surfaces are the build's.
	var prev *roundQuality
	var s *Surfaces
	for round := 0; ; round++ {
		d := initial
		if round > 0 {
			add := cfg.BatchPoints
			if cum.Design.N()+add > cfg.MaxPoints {
				add = cfg.MaxPoints - cum.Design.N()
			}
			augmented, err := doe.AugmentDOptimal(cum.Design, candidates, add, model.Row, adaptiveMaxPasses)
			if err != nil {
				return fail(err)
			}
			d = &doe.Design{Runs: augmented.Runs[cum.Design.N():]}
		}
		d.Name = fmt.Sprintf("adaptive-r%d", round)
		ds, err := run(ctx, d)
		if ds != nil {
			absorb(ds)
		}
		if err != nil {
			return fail(err)
		}
		if s, err = p.BuildSurfaces(cum, model); err != nil {
			return fail(err)
		}
		cur := quality(s)
		stats.Rounds = append(stats.Rounds, AdaptiveRound{
			Round: round, Added: d.N(), Points: cum.Design.N(),
			MinR2: cur.minR2, MinAdjR2: cur.minAdjR2, MinR2Pred: cur.minR2Pred,
			WorstLackP: cur.worstLackP, WorstLackFrac: cur.worstLackFrac,
		})
		lg.Debug("adaptive round", "round", round, "points", cum.Design.N(),
			"min_r2", cur.minR2, "worst_lack_frac", cur.worstLackFrac)

		// Budget exhaustion takes precedence over the converged label: a
		// build that used its whole budget reports max_points even when the
		// last round also happened to satisfy the stopping rule.
		if cum.Design.N() >= cfg.MaxPoints {
			stats.StopReason = StopMaxPoints
			break
		}
		if prev != nil && cum.Design.N() >= cfg.MinPoints && converged(prev, cur) {
			stats.StopReason = StopConverged
			break
		}
		prev = cur
	}

	stats.PointsSimulated = cum.Design.N()
	if skipped := stats.FixedPoints - stats.PointsSimulated; skipped > 0 {
		stats.PointsSkipped = skipped
	}
	res.Surfaces = s
	lg.Info("adaptive build finished", "points", stats.PointsSimulated,
		"fixed_points", stats.FixedPoints, "rounds", len(stats.Rounds),
		"stop", stats.StopReason)
	return res, nil
}

// converged applies the stopping rule: every response's lack of fit is
// acceptable (F-test not significant, relative lack below lackFraction, or
// lack no longer improving by lackTol) AND the round's improvement in both
// worst-case adjusted R² and worst-case PRESS-based R²-pred is below
// threshold.
func converged(prev, cur *roundQuality) bool {
	lofOK := cur.lofOK || (prev.worstLackFrac-cur.worstLackFrac) < lackTol
	if !lofOK {
		return false
	}
	if cur.minAdjR2-prev.minAdjR2 >= adjR2Tol {
		return false
	}
	if cur.minR2Pred-prev.minR2Pred >= r2PredTol {
		return false
	}
	return true
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// seamProblem is a problem whose rounds are answered analytically through
// the RunDesign seam, so the adaptive loop's control flow is tested without
// any simulator in the way (exactly how the cluster coordinator plugs in).
func seamProblem(k int) *Problem {
	factors := make([]doe.Factor, k)
	for i := range factors {
		factors[i] = doe.Factor{Name: fmt.Sprintf("f%d", i), Min: -1, Max: 1}
	}
	return &Problem{
		Factors:   factors,
		Responses: []ResponseID{RespHarvestedPower, RespNetMargin},
		Horizon:   1,
		Build: func(nat []float64) (Scenario, error) {
			return Scenario{}, fmt.Errorf("seam tests must not reach the simulator")
		},
	}
}

// analyticSeam answers each round from the given truth functions and counts
// rounds and points.
func analyticSeam(p *Problem, truth map[ResponseID]func([]float64) float64, rounds *[]string, points *int) func(context.Context, *doe.Design) (*Dataset, error) {
	return func(_ context.Context, d *doe.Design) (*Dataset, error) {
		if rounds != nil {
			*rounds = append(*rounds, d.Name)
		}
		if points != nil {
			*points += d.N()
		}
		ds := &Dataset{Design: d, Y: make(map[ResponseID][]float64, len(truth)), SimWork: time.Duration(d.N())}
		for _, id := range p.Responses {
			col := make([]float64, d.N())
			for i, run := range d.Runs {
				col[i] = truth[id](run)
			}
			ds.Y[id] = col
		}
		return ds, nil
	}
}

// quadTruth is exactly representable by the full-quadratic model, so lack of
// fit vanishes once the design identifies it and the loop must stop early.
func quadTruth(x []float64) float64 {
	s := 1.0
	for j, v := range x {
		s += float64(j+1)*0.5*v - 0.3*v*v
		if j > 0 {
			s += 0.2 * v * x[j-1]
		}
	}
	return s
}

// spikyTruth is far outside the quadratic basis: lack of fit never clears.
func spikyTruth(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Sin(9 * v)
	}
	return s
}

func TestAdaptiveConvergesOnQuadraticTruth(t *testing.T) {
	p := seamProblem(3)
	truth := map[ResponseID]func([]float64) float64{
		RespHarvestedPower: quadTruth,
		RespNetMargin:      func(x []float64) float64 { return 2 - quadTruth(x) },
	}
	var rounds []string
	var points int
	res, err := Build(context.Background(), BuildSpec{
		Problem: p, Run: analyticSeam(p, truth, &rounds, &points),
		Adaptive: &AdaptiveConfig{InitialPoints: 12, CenterReplicates: 2, BatchPoints: 3, MaxPoints: 60, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.StopReason != StopConverged {
		t.Fatalf("quadratic truth must converge, got %q after %d points", res.Adaptive.StopReason, res.Adaptive.PointsSimulated)
	}
	if n := res.Adaptive.PointsSimulated; n > 26 {
		t.Fatalf("an exactly-quadratic truth must stop near the minimum budget, used %d points", n)
	}
	if res.Adaptive.PointsSimulated != points {
		t.Fatalf("stats claim %d points, seam saw %d", res.Adaptive.PointsSimulated, points)
	}
	if res.Adaptive.PointsSimulated != res.Dataset.Design.N() {
		t.Fatalf("dataset has %d runs, stats claim %d", res.Dataset.Design.N(), res.Adaptive.PointsSimulated)
	}
	// Round names and per-round stats must line up for JobView consumers.
	for i, name := range rounds {
		if want := fmt.Sprintf("adaptive-r%d", i); name != want {
			t.Fatalf("round %d design named %q, want %q", i, name, want)
		}
	}
	if len(res.Adaptive.Rounds) != len(rounds) {
		t.Fatalf("%d round stats for %d executed rounds", len(res.Adaptive.Rounds), len(rounds))
	}
	sum := 0
	for i, r := range res.Adaptive.Rounds {
		if r.Round != i {
			t.Fatalf("round index %d at position %d", r.Round, i)
		}
		sum += r.Added
		if r.Points != sum {
			t.Fatalf("round %d cumulative points %d, want %d", i, r.Points, sum)
		}
	}
	if sum != res.Adaptive.PointsSimulated {
		t.Fatalf("round Added sums to %d, stats claim %d", sum, res.Adaptive.PointsSimulated)
	}
	// The fit must reproduce the analytic truth (it is inside the basis).
	for _, x := range [][]float64{{0.3, -0.7, 0.1}, {-1, 1, -1}, {0.25, 0.25, -0.5}} {
		got, err := res.Surfaces.Predict(RespHarvestedPower, x)
		if err != nil {
			t.Fatal(err)
		}
		if want := quadTruth(x); math.Abs(got-want) > 1e-6 {
			t.Fatalf("surface predicts %v at %v, truth is %v", got, x, want)
		}
	}
	// Savings bookkeeping against the fixed reference.
	if res.Adaptive.FixedPoints != FixedEquivalentPoints(3) {
		t.Fatalf("fixed reference %d, want %d", res.Adaptive.FixedPoints, FixedEquivalentPoints(3))
	}
	if res.Adaptive.PointsSkipped != res.Adaptive.FixedPoints-res.Adaptive.PointsSimulated {
		t.Fatalf("skipped %d, want %d", res.Adaptive.PointsSkipped, res.Adaptive.FixedPoints-res.Adaptive.PointsSimulated)
	}
}

func TestAdaptiveStopsAtMaxPoints(t *testing.T) {
	p := seamProblem(3)
	truth := map[ResponseID]func([]float64) float64{
		RespHarvestedPower: spikyTruth,
		RespNetMargin:      func(x []float64) float64 { return spikyTruth(x) + x[0] },
	}
	res, err := Build(context.Background(), BuildSpec{
		Problem: p, Run: analyticSeam(p, truth, nil, nil),
		Adaptive: &AdaptiveConfig{InitialPoints: 12, CenterReplicates: 2, BatchPoints: 6, MinPoints: 23, MaxPoints: 23, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive.StopReason != StopMaxPoints {
		t.Fatalf("spiky truth must exhaust the budget, got %q", res.Adaptive.StopReason)
	}
	// The final round is clipped so the budget is hit exactly, never passed.
	if res.Adaptive.PointsSimulated != 23 {
		t.Fatalf("budget of 23 must be hit exactly, simulated %d", res.Adaptive.PointsSimulated)
	}
	// The k=3 fixed reference (17 runs) is below this budget, so the
	// skipped count clamps at zero rather than going negative.
	if res.Adaptive.PointsSkipped != 0 {
		t.Fatalf("skipped must clamp at 0 when adaptive costs more, got %d", res.Adaptive.PointsSkipped)
	}
}

func TestAdaptiveDeterministicAndOnLattice(t *testing.T) {
	truth := map[ResponseID]func([]float64) float64{
		RespHarvestedPower: spikyTruth,
		RespNetMargin:      quadTruth,
	}
	run := func(seed int64) *BuildResult {
		p := seamProblem(3)
		res, err := Build(context.Background(), BuildSpec{
			Problem: p, Run: analyticSeam(p, truth, nil, nil),
			Adaptive: &AdaptiveConfig{InitialPoints: 12, CenterReplicates: 2, BatchPoints: 3, MaxPoints: 30, Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(3), run(3)
	if a.Adaptive.PointsSimulated != b.Adaptive.PointsSimulated {
		t.Fatalf("same seed, different budgets: %d vs %d", a.Adaptive.PointsSimulated, b.Adaptive.PointsSimulated)
	}
	for i, run := range a.Dataset.Design.Runs {
		for j, v := range run {
			if math.Float64bits(v) != math.Float64bits(b.Dataset.Design.Runs[i][j]) {
				t.Fatalf("run %d differs between identical seeds", i)
			}
		}
	}
	for j := range a.Surfaces.Fits[RespNetMargin].Coef {
		if math.Float64bits(a.Surfaces.Fits[RespNetMargin].Coef[j]) != math.Float64bits(b.Surfaces.Fits[RespNetMargin].Coef[j]) {
			t.Fatal("coefficients differ between identical seeds")
		}
	}
	// Every selected point sits on the quantized candidate lattice, so
	// optimizer revisits and reruns hit the simcache.
	for i, run := range a.Dataset.Design.Runs {
		for _, v := range run {
			if q := math.Round((v+1)/0.5) * 0.5; math.Abs(v-(q-1)) > 1e-12 {
				t.Fatalf("run %d coordinate %v is off the default 5-level lattice", i, v)
			}
		}
	}
}

// TestAdaptiveSimTimeSumsRounds: an adaptive dataset's SimTime is the sum
// of its rounds' SimTime. The D-optimal selections and refits between
// rounds are not simulation time, so an executor that reports a fixed
// SimTime without sleeping must add up exactly.
func TestAdaptiveSimTimeSumsRounds(t *testing.T) {
	p := seamProblem(3)
	truth := map[ResponseID]func([]float64) float64{
		RespHarvestedPower: quadTruth,
		RespNetMargin:      spikyTruth,
	}
	inner := analyticSeam(p, truth, nil, nil)
	const perRound = time.Second
	res, err := Build(context.Background(), BuildSpec{
		Problem:  p,
		Adaptive: &AdaptiveConfig{InitialPoints: 12, CenterReplicates: 2, BatchPoints: 3, MaxPoints: 30, Seed: 7},
		Run: func(ctx context.Context, d *doe.Design) (*Dataset, error) {
			ds, err := inner(ctx, d)
			ds.SimTime = perRound
			return ds, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(len(res.Adaptive.Rounds)) * perRound; res.Dataset.SimTime != want {
		t.Fatalf("SimTime %v over %d rounds, want their sum %v", res.Dataset.SimTime, len(res.Adaptive.Rounds), want)
	}
}

func TestAdaptivePartialDatasetOnRoundFailure(t *testing.T) {
	p := seamProblem(3)
	truth := map[ResponseID]func([]float64) float64{
		RespHarvestedPower: spikyTruth,
		RespNetMargin:      quadTruth,
	}
	inner := analyticSeam(p, truth, nil, nil)
	calls := 0
	res, err := Build(context.Background(), BuildSpec{
		Problem:  p,
		Adaptive: &AdaptiveConfig{InitialPoints: 12, CenterReplicates: 2, BatchPoints: 3, MinPoints: 30, MaxPoints: 40, Seed: 7},
		Run: func(ctx context.Context, d *doe.Design) (*Dataset, error) {
			calls++
			if calls == 3 {
				// A mid-round failure still hands back whatever stats the
				// round produced, like RunDesign does.
				return &Dataset{Design: &doe.Design{}, SimWork: time.Millisecond, Retries: 2}, errors.New("round blew up")
			}
			return inner(ctx, d)
		},
	})
	if err == nil || !strings.Contains(err.Error(), "round blew up") {
		t.Fatalf("round failure must surface, got %v", err)
	}
	if res == nil || res.Dataset == nil {
		t.Fatal("failed build must still return the partial dataset")
	}
	if res.Dataset.Y != nil {
		t.Fatal("partial dataset must be Y-less, like a failed fixed build")
	}
	if res.Dataset.Retries != 2 {
		t.Fatalf("failed round's fault stats must be merged, got %d retries", res.Dataset.Retries)
	}
	if res.Surfaces != nil {
		t.Fatal("no surfaces on failure")
	}
	if len(res.Adaptive.Rounds) != 2 {
		t.Fatalf("the two completed rounds must keep their stats, got %d", len(res.Adaptive.Rounds))
	}
}

func TestAdaptiveContextCancelMidBuild(t *testing.T) {
	p := seamProblem(3)
	truth := map[ResponseID]func([]float64) float64{
		RespHarvestedPower: spikyTruth,
		RespNetMargin:      quadTruth,
	}
	inner := analyticSeam(p, truth, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err := Build(ctx, BuildSpec{
		Problem:  p,
		Adaptive: &AdaptiveConfig{InitialPoints: 12, CenterReplicates: 2, BatchPoints: 3, MaxPoints: 40, Seed: 7},
		Run: func(ctx context.Context, d *doe.Design) (*Dataset, error) {
			calls++
			if calls == 2 {
				cancel()
				return nil, ctx.Err()
			}
			return inner(ctx, d)
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must propagate, got %v", err)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	// Single-factor problems have no useful D-optimal augmentation.
	p1 := seamProblem(1)
	if _, err := Build(context.Background(), BuildSpec{Problem: p1, Adaptive: &AdaptiveConfig{}}); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	// Model width must match the problem.
	p := seamProblem(3)
	if _, err := Build(context.Background(), BuildSpec{Problem: p, Model: rsm.FullQuadratic(2), Adaptive: &AdaptiveConfig{}}); err == nil {
		t.Fatal("model/problem factor mismatch must be rejected")
	}
	// The candidate lattice must be able to seat the initial design.
	if _, err := Build(context.Background(), BuildSpec{Problem: p, Adaptive: &AdaptiveConfig{CandidateLevels: 2, InitialPoints: 20}}); err == nil || !strings.Contains(err.Error(), "candidate lattice") {
		t.Fatalf("oversized initial design must name the lattice, got %v", err)
	}
}

// flakySimRunner delegates to a real runner but fails transiently every
// few calls — faults landing mid-round, which the per-round pool must
// absorb through its retry budget.
type flakySimRunner struct {
	inner simcache.Runner
	calls atomic.Int64
	every int64
	fails atomic.Int64
}

func (r *flakySimRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	if r.calls.Add(1)%r.every == 0 {
		r.fails.Add(1)
		return nil, transientErr{}
	}
	return r.inner.Run(ctx, engine, fn, d, cfg)
}

// TestAdaptiveChaosFaultsMidRound is the end-to-end resilience gate for the
// sequential strategy: a real four-factor problem, real simulations, and a
// runner that keeps failing transiently mid-round. The build must converge
// through the ordinary retry machinery with the faults visible in the
// dataset's stats.
func TestAdaptiveChaosFaultsMidRound(t *testing.T) {
	p := StandardProblem(1.0, 0.5)
	flaky := &flakySimRunner{inner: simcache.New(simcache.Options{}), every: 7}
	p.Runner = flaky
	p.Retry.MaxAttempts = 4
	p.Retry.BaseDelay = time.Millisecond
	p.Retry.MaxDelay = 2 * time.Millisecond

	res, err := Build(context.Background(), BuildSpec{Problem: p, Workers: 4, Adaptive: &AdaptiveConfig{Seed: 4}})
	if err != nil {
		t.Fatalf("adaptive build must ride out transient mid-round faults: %v", err)
	}
	if flaky.fails.Load() == 0 {
		t.Fatal("test impotent: no faults were injected")
	}
	if res.Dataset.Retries == 0 {
		t.Fatal("retries must be visible in the cumulative dataset")
	}
	if res.Adaptive.StopReason != StopConverged && res.Adaptive.StopReason != StopMaxPoints {
		t.Fatalf("unexpected stop reason %q", res.Adaptive.StopReason)
	}
	if res.Adaptive.PointsSimulated > FixedEquivalentPoints(4) {
		t.Fatalf("adaptive build must never cost more than the fixed reference: %d > %d",
			res.Adaptive.PointsSimulated, FixedEquivalentPoints(4))
	}
	if res.Surfaces == nil {
		t.Fatal("converged build must carry surfaces")
	}
	for _, id := range p.Responses {
		if len(res.Dataset.Y[id]) != res.Adaptive.PointsSimulated {
			t.Fatalf("response %q has %d values for %d points", id, len(res.Dataset.Y[id]), res.Adaptive.PointsSimulated)
		}
	}
}

// batchRound recomputes one round's worst-case stats the way the stopping
// rule defines them, from one rsm.FitModel per response over the first n
// runs of the build's dataset.
func batchRound(t *testing.T, p *Problem, ds *Dataset, model rsm.Model, n int) AdaptiveRound {
	t.Helper()
	runs := ds.Design.Runs[:n]
	want := AdaptiveRound{MinR2: math.Inf(1), MinAdjR2: math.Inf(1), MinR2Pred: math.Inf(1), WorstLackP: math.Inf(1)}
	anyLackP := false
	for _, id := range p.Responses {
		ys := ds.Y[id][:n]
		fit, err := rsm.FitModel(model, runs, ys)
		if err != nil {
			t.Fatal(err)
		}
		var sumYY float64
		for _, y := range ys {
			sumYY += y * y
		}
		if fit.TotalSS <= 1e-12*math.Max(sumYY, 1e-300) {
			continue
		}
		want.MinR2 = math.Min(want.MinR2, fit.R2)
		want.MinAdjR2 = math.Min(want.MinAdjR2, fit.AdjR2)
		want.MinR2Pred = math.Min(want.MinR2Pred, fit.R2Pred)
		lackFrac := fit.ResidualSS / fit.TotalSS
		if lof, err := fit.LackOfFitTest(runs, ys); err == nil {
			lackFrac = lof.LackSS / fit.TotalSS
			if !math.IsNaN(lof.P) {
				anyLackP = true
				want.WorstLackP = math.Min(want.WorstLackP, lof.P)
			}
		}
		want.WorstLackFrac = math.Max(want.WorstLackFrac, lackFrac)
	}
	if !anyLackP {
		want.WorstLackP = -1
	}
	if math.IsInf(want.MinR2, 1) {
		want.MinR2, want.MinAdjR2, want.MinR2Pred = 1, 1, 1
	}
	return want
}

// TestAdaptiveRoundsMatchBatchFits pins the adaptive loop to the batch fit:
// every round's five stats equal, bit for bit, those recomputed from
// rsm.FitModel on that round's cumulative prefix, and the build's final
// surfaces equal BuildSurfaces of its returned dataset bit for bit.
func TestAdaptiveRoundsMatchBatchFits(t *testing.T) {
	truths := map[string]map[ResponseID]func([]float64) float64{
		"quad": {
			RespHarvestedPower: quadTruth,
			RespNetMargin:      func(x []float64) float64 { return 2 - quadTruth(x) },
		},
		"spiky": {
			RespHarvestedPower: spikyTruth,
			RespNetMargin:      quadTruth,
		},
	}
	for k := 2; k <= 4; k++ {
		for name, truth := range truths {
			t.Run(fmt.Sprintf("k=%d/%s", k, name), func(t *testing.T) {
				p := seamProblem(k)
				model := rsm.FullQuadratic(k)
				res, err := Build(context.Background(), BuildSpec{
					Problem: p, Run: analyticSeam(p, truth, nil, nil),
					Adaptive: &AdaptiveConfig{MaxPoints: 2 * FixedEquivalentPoints(k), Seed: 7},
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Adaptive.Rounds) < 2 {
					t.Fatalf("only %d rounds; the test needs a refit after augmentation", len(res.Adaptive.Rounds))
				}
				for _, got := range res.Adaptive.Rounds {
					want := batchRound(t, p, res.Dataset, model, got.Points)
					for _, c := range []struct {
						stat      string
						got, want float64
					}{
						{"min_r2", got.MinR2, want.MinR2},
						{"min_adj_r2", got.MinAdjR2, want.MinAdjR2},
						{"min_r2_pred", got.MinR2Pred, want.MinR2Pred},
						{"worst_lof_p", got.WorstLackP, want.WorstLackP},
						{"worst_lack_frac", got.WorstLackFrac, want.WorstLackFrac},
					} {
						if math.Float64bits(c.got) != math.Float64bits(c.want) {
							t.Fatalf("round %d (%d points) %s = %v, batch fit gives %v", got.Round, got.Points, c.stat, c.got, c.want)
						}
					}
				}
				batch, err := p.BuildSurfaces(res.Dataset, model)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range p.Responses {
					got, want := res.Surfaces.Fits[id].Coef, batch.Fits[id].Coef
					if len(got) != len(want) {
						t.Fatalf("%s: %d coefficients, batch fit has %d", id, len(got), len(want))
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s coefficient %d = %v, batch fit gives %v", id, j, got[j], want[j])
						}
					}
				}
			})
		}
	}
}

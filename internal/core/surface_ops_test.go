package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/doe"
	"repro/internal/opt"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// The reference* functions below are copies of the per-operation loops
// Surfaces.Optimize, OptimizeDesirability and Validate ran before they
// shared opt.MultiStart and the one validation loop. The pins compare the
// shared implementations against them bit for bit.

func referenceOptimize(ctx context.Context, s *Surfaces, id ResponseID, maximize bool, starts int, seed int64) (*OptimizeResult, error) {
	fit, ok := s.Fits[id]
	if !ok {
		return nil, fmt.Errorf("core: no surface for %q", id)
	}
	if starts < 1 {
		starts = 1
	}
	obj := opt.Objective(fit.Predict)
	if maximize {
		obj = opt.Maximize(obj)
	}
	b := opt.NewBounds(len(s.Problem.Factors))
	rng := rand.New(rand.NewSource(seed))
	var best *opt.Result
	evals := 0
	for i := 0; i < starts; i++ {
		x0 := b.Random(rng)
		r, err := opt.NelderMead(obj, b, x0, opt.NelderMeadConfig{MaxIters: 400})
		if err != nil {
			return nil, err
		}
		evals += r.Evals
		if best == nil || r.F < best.F {
			best = r
		}
	}
	pred := fit.Predict(best.X)
	resp, err := s.Problem.ResponsesAt(ctx, best.X)
	if err != nil {
		return nil, err
	}
	conf := resp[id]
	natural, err := doe.DecodeRun(s.Problem.Factors, best.X)
	if err != nil {
		return nil, err
	}
	denom := math.Max(math.Abs(conf), 1e-12)
	return &OptimizeResult{
		SurfaceOptimum: SurfaceOptimum{Coded: best.X, Natural: natural, Predicted: pred, Evals: evals},
		Confirmed:      conf,
		RelError:       math.Abs(pred-conf) / denom,
	}, nil
}

func referenceOptimizeDesirability(ctx context.Context, s *Surfaces, goals []DesirabilityGoal, starts int, seed int64) (*DesirabilityResult, error) {
	evals := make([]opt.Objective, len(goals))
	shapes := make([]opt.Desirability, len(goals))
	weights := make([]float64, len(goals))
	for i, g := range goals {
		evals[i] = s.Fits[g.Response].Predict
		shapes[i] = g.Shape
		weights[i] = g.Weight
	}
	comp, err := opt.NewComposite(evals, shapes, weights)
	if err != nil {
		return nil, err
	}
	if starts < 1 {
		starts = 1
	}
	b := opt.NewBounds(len(s.Problem.Factors))
	rng := rand.New(rand.NewSource(seed))
	var best *opt.Result
	totalEvals := 0
	for i := 0; i < starts; i++ {
		r, err := opt.NelderMead(comp.Objective(), b, b.Random(rng), opt.NelderMeadConfig{MaxIters: 400})
		if err != nil {
			return nil, err
		}
		totalEvals += r.Evals
		if best == nil || r.F < best.F {
			best = r
		}
	}
	natural, err := doe.DecodeRun(s.Problem.Factors, best.X)
	if err != nil {
		return nil, err
	}
	res := &DesirabilityResult{
		Coded:     best.X,
		Natural:   natural,
		Score:     comp.Score(best.X),
		Predicted: make(map[ResponseID]float64, len(goals)),
		Simulated: make(map[ResponseID]float64, len(goals)),
		Evals:     totalEvals,
	}
	sim, err := s.Problem.ResponsesAt(ctx, best.X)
	if err != nil {
		return nil, err
	}
	simEvals := make([]opt.Objective, len(goals))
	for i, g := range goals {
		res.Predicted[g.Response] = s.Fits[g.Response].Predict(best.X)
		res.Simulated[g.Response] = sim[g.Response]
		v := sim[g.Response]
		simEvals[i] = func(x []float64) float64 { return v }
	}
	simComp, err := opt.NewComposite(simEvals, shapes, weights)
	if err != nil {
		return nil, err
	}
	res.Confirmed = simComp.Score(best.X)
	return res, nil
}

func referenceValidate(ctx context.Context, s *Surfaces, n int, seed int64) (*ValidationReport, error) {
	rng := rand.New(rand.NewSource(seed))
	k := len(s.Problem.Factors)
	points := make([][]float64, n)
	for i := range points {
		x := make([]float64, k)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		points[i] = x
	}
	simVals := make(map[ResponseID][]float64, len(s.Problem.Responses))
	for _, x := range points {
		resp, err := s.Problem.ResponsesAt(ctx, x)
		if err != nil {
			return nil, err
		}
		for _, id := range s.Problem.Responses {
			simVals[id] = append(simVals[id], resp[id])
		}
	}
	rep := &ValidationReport{N: n}
	for _, id := range s.Problem.Responses {
		fit := s.Fits[id]
		sims := simVals[id]
		mn, mx := sims[0], sims[0]
		var sumAbs, maxAbs float64
		for i, x := range points {
			e := math.Abs(fit.Predict(x) - sims[i])
			sumAbs += e
			if e > maxAbs {
				maxAbs = e
			}
			if sims[i] < mn {
				mn = sims[i]
			}
			if sims[i] > mx {
				mx = sims[i]
			}
		}
		rng := mx - mn
		if rng <= 0 {
			rng = math.Max(math.Abs(mx), 1e-12)
		}
		rep.Rows = append(rep.Rows, ValidationRow{
			Response:   id,
			MeanAbsErr: sumAbs / float64(n),
			MaxAbsErr:  maxAbs,
			MeanRelErr: sumAbs / float64(n) / rng,
			R2:         fit.R2,
		})
	}
	return rep, nil
}

// bitsOf renders floats as their IEEE-754 bit patterns, so a comparison of
// the strings is a comparison of every bit.
func bitsOf(vs ...float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%016x ", math.Float64bits(v))
	}
	return b.String()
}

func mapBits(m map[ResponseID]float64) string {
	ids := make([]ResponseID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%s=%s", id, bitsOf(m[id]))
	}
	return b.String()
}

// opsSurfaces returns two surface sets the pins run on: the 3-factor
// CCF build on the simulator and a 4-factor CCF fit to a synthetic
// dataset, both on private caches and short horizons.
func opsSurfaces(t *testing.T) map[string]*Surfaces {
	t.Helper()
	_, s3 := buildTestSurfaces(t)
	s3.Problem.Runner = simcache.New(simcache.Options{})
	p4, ds := surfacesDataset(t)
	p4.Horizon = 5
	p4.Runner = simcache.New(simcache.Options{})
	s4, err := p4.BuildSurfaces(ds, rsm.FullQuadratic(len(p4.Factors)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Surfaces{"k3-sim": s3, "k4-synthetic": s4}
}

// TestSurfaceOperationsMatchReferenceLoops pins Optimize,
// OptimizeDesirability and Validate to the loops they replaced, bit for
// bit, over several seeds, starts and directions.
func TestSurfaceOperationsMatchReferenceLoops(t *testing.T) {
	ctx := context.Background()
	for name, s := range opsSurfaces(t) {
		for _, seed := range []int64{1, 7, 42} {
			for _, starts := range []int{0, 1, 3, 6} {
				for _, maximize := range []bool{true, false} {
					for _, id := range []ResponseID{RespStoredEnergy, RespPackets} {
						want, err := referenceOptimize(ctx, s, id, maximize, starts, seed)
						if err != nil {
							t.Fatal(err)
						}
						got, err := s.Optimize(ctx, id, maximize, starts, seed)
						if err != nil {
							t.Fatal(err)
						}
						wb := bitsOf(slices.Concat(want.Coded, want.Natural, []float64{want.Predicted, want.Confirmed, want.RelError})...)
						gb := bitsOf(slices.Concat(got.Coded, got.Natural, []float64{got.Predicted, got.Confirmed, got.RelError})...)
						if wb != gb || want.Evals != got.Evals {
							t.Fatalf("%s Optimize(%s, max=%v, starts=%d, seed=%d):\n got %s evals %d\nwant %s evals %d",
								name, id, maximize, starts, seed, gb, got.Evals, wb, want.Evals)
						}
					}
				}
			}
			goals := []DesirabilityGoal{
				{Response: RespPackets, Shape: opt.Larger{Lo: 0, Hi: 10}},
				{Response: RespNetMargin, Shape: opt.Larger{Lo: -5, Hi: 1}, Weight: 2},
			}
			want, err := referenceOptimizeDesirability(ctx, s, goals, 3, seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.OptimizeDesirability(ctx, goals, 3, seed)
			if err != nil {
				t.Fatal(err)
			}
			wb := bitsOf(slices.Concat(want.Coded, want.Natural, []float64{want.Score, want.Confirmed})...) + mapBits(want.Predicted) + mapBits(want.Simulated)
			gb := bitsOf(slices.Concat(got.Coded, got.Natural, []float64{got.Score, got.Confirmed})...) + mapBits(got.Predicted) + mapBits(got.Simulated)
			if wb != gb || want.Evals != got.Evals {
				t.Fatalf("%s OptimizeDesirability seed %d:\n got %s evals %d\nwant %s evals %d", name, seed, gb, got.Evals, wb, want.Evals)
			}

			wantRep, err := referenceValidate(ctx, s, 4, seed)
			if err != nil {
				t.Fatal(err)
			}
			gotRep, err := s.Validate(ctx, 4, seed)
			if err != nil {
				t.Fatal(err)
			}
			if gotRep.N != wantRep.N || len(gotRep.Rows) != len(wantRep.Rows) {
				t.Fatalf("%s Validate seed %d: N %d rows %d, want %d/%d", name, seed, gotRep.N, len(gotRep.Rows), wantRep.N, len(wantRep.Rows))
			}
			for i, w := range wantRep.Rows {
				g := gotRep.Rows[i]
				if g.Response != w.Response ||
					bitsOf(g.MeanAbsErr, g.MaxAbsErr, g.MeanRelErr, g.R2) != bitsOf(w.MeanAbsErr, w.MaxAbsErr, w.MeanRelErr, w.R2) {
					t.Fatalf("%s Validate seed %d row %d: got %+v, want %+v", name, seed, i, g, w)
				}
			}
		}
	}
}

// savedWith returns a copy of saved surfaces that also carries (or lacks)
// the given responses, with coefficients borrowed from an existing one.
func savedWith(ss *SavedSurfaces, add []ResponseID, drop []ResponseID) *SavedSurfaces {
	out := *ss
	out.Coef = make(map[ResponseID][]float64, len(ss.Coef))
	out.R2 = make(map[ResponseID]float64, len(ss.R2))
	for id, c := range ss.Coef {
		if !slices.Contains(drop, id) {
			out.Coef[id] = c
			out.R2[id] = ss.R2[id]
		}
	}
	for _, id := range add {
		out.Coef[id] = ss.Coef[RespStoredEnergy]
		out.R2[id] = 0.5
	}
	return &out
}

func TestSavedValidateScoresSharedResponses(t *testing.T) {
	p, s := buildTestSurfaces(t)
	p.Runner = simcache.New(simcache.Options{})
	ctx := context.Background()
	saved := s.Save("ccf", 16)

	// An extra response the problem never simulates is left out; the rest
	// come in name order.
	extra := savedWith(saved, []ResponseID{RespFinalStoreV}, nil)
	rep, err := extra.Validate(ctx, p, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ids []ResponseID
	for _, row := range rep.Rows {
		ids = append(ids, row.Response)
	}
	want := slices.Clone(p.Responses)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		t.Fatalf("rows %v, want %v", ids, want)
	}
	// A missing response is simply not scored.
	fewer := savedWith(saved, nil, []ResponseID{RespPackets})
	rep, err = fewer.Validate(ctx, p, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(p.Responses)-1 {
		t.Fatalf("%d rows, want %d", len(rep.Rows), len(p.Responses)-1)
	}

	// Same points, same surfaces: the saved and the live validation agree
	// on everything their predictors share.
	live, err := s.Validate(ctx, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[ResponseID]ValidationRow{}
	for _, row := range live.Rows {
		byID[row.Response] = row
	}
	rep, err = saved.Validate(ctx, p, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		w := byID[row.Response]
		if math.Abs(row.MeanAbsErr-w.MeanAbsErr) > 1e-9*(1+math.Abs(w.MeanAbsErr)) || row.R2 != w.R2 {
			t.Fatalf("%s: saved %+v, live %+v", row.Response, row, w)
		}
	}

	// Model-vs-problem mismatches.
	only := savedWith(saved, []ResponseID{RespFinalStoreV}, saved.Responses())
	if _, err := only.Validate(ctx, p, 3, 5); !errors.Is(err, ErrModelMismatch) || !strings.Contains(err.Error(), "share no responses") {
		t.Fatalf("no shared response: %v", err)
	}
	wide := StandardProblem(0.6, 5)
	if _, err := saved.Validate(ctx, wide, 3, 5); !errors.Is(err, ErrModelMismatch) || !strings.Contains(err.Error(), "3 factors, problem has 4") {
		t.Fatalf("factor-count mismatch: %v", err)
	}
	if _, err := saved.Validate(ctx, p, 0, 5); err == nil {
		t.Fatal("n=0 must error")
	}

	// A context that has ended stops the loop before its next simulation.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err = saved.Validate(cctx, p, 3, 5)
	if !errors.Is(err, ErrValidationAborted) || !errors.Is(err, context.Canceled) || err.Error() != "validation aborted: context canceled" {
		t.Fatalf("cancelled validation: %v", err)
	}
}

func TestSavedValidateReportsFailedPoint(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("ccf", 16)
	p := quickProblem()
	calls := 0
	// An unnamed engine bypasses the cache, so every point reaches it.
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		if calls++; calls == 2 {
			return nil, errors.New("boom")
		}
		return sim.RunFast(d, cfg)
	}
	_, err := saved.Validate(context.Background(), p, 3, 5)
	if err == nil || err.Error() != "simulation 1 failed: boom" {
		t.Fatalf("err = %v, want the failed point's index", err)
	}
}

func TestSavedSweep(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("ccf", 16)
	base := []float64{5, 0.05, 3}
	xs, ys, err := saved.Sweep(RespPackets, 2, base, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := saved.Factors[2]
	if xs[0] != f.Min || xs[4] != f.Max || len(ys) != 5 {
		t.Fatalf("xs %v over [%g, %g], %d ys", xs, f.Min, f.Max, len(ys))
	}
	for i, x := range xs {
		at := slices.Clone(base)
		at[2] = x
		want, err := saved.PredictNatural(RespPackets, at)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ys[i]) != math.Float64bits(want) {
			t.Fatalf("y[%d] = %v, PredictNatural %v", i, ys[i], want)
		}
	}
	if base[2] != 3 {
		t.Fatal("sweep wrote into the base point")
	}
	for _, tc := range []struct {
		id   ResponseID
		fi   int
		base []float64
		n    int
	}{
		{"nope", 0, base, 5},
		{RespPackets, 3, base, 5},
		{RespPackets, -1, base, 5},
		{RespPackets, 0, base, 1},
		{RespPackets, 0, base[:2], 5},
	} {
		if _, _, err := saved.Sweep(tc.id, tc.fi, tc.base, tc.n); err == nil {
			t.Errorf("Sweep(%q, %d, %v, %d) must fail", tc.id, tc.fi, tc.base, tc.n)
		}
	}
}

func TestSavedOptimize(t *testing.T) {
	_, s := buildTestSurfaces(t)
	saved := s.Save("ccf", 16)
	for _, maximize := range []bool{true, false} {
		got, err := saved.Optimize(RespStoredEnergy, maximize, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		pred, _ := saved.Predictor(RespStoredEnergy)
		obj := opt.Objective(pred)
		if maximize {
			obj = opt.Maximize(obj)
		}
		best, evals, err := opt.MultiStart(obj, opt.NewBounds(3), 4, 3, opt.NelderMeadConfig{MaxIters: 400})
		if err != nil {
			t.Fatal(err)
		}
		natural, _ := doe.DecodeRun(saved.Factors, best.X)
		if bitsOf(slices.Concat(got.Coded, got.Natural, []float64{got.Predicted})...) != bitsOf(slices.Concat(best.X, natural, []float64{pred(best.X)})...) || got.Evals != evals {
			t.Fatalf("max=%v: %+v, want %v/%v evals %d", maximize, got, best.X, natural, evals)
		}
	}
	if _, err := saved.Optimize("nope", true, 1, 1); err == nil {
		t.Fatal("unknown response must fail")
	}
}

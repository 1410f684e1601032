package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/explore"
	"repro/internal/report"
	"repro/internal/rsm"
)

// standardProblem builds the 4-factor problem used by the RSM experiments.
func standardProblem(cfg Config) *core.Problem {
	return core.StandardProblem(0.6, cfg.horizon(20, 60))
}

// validationPoints draws shared random coded points for fair cross-design
// comparison.
func validationPoints(k, n int, seed int64) [][]float64 {
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

// TabT2DesignComparison reproduces R-T2: competing experiment designs (and
// model orders) at comparable run budgets — run count, fit quality and
// honest out-of-sample RMSE on a shared validation set. This is the
// "moderate number of simulations" trade study.
func TabT2DesignComparison(cfg Config) (*report.Table, error) {
	p := standardProblem(cfg)
	k := len(p.Factors)
	quad := rsm.FullQuadratic(k)

	type entry struct {
		name   string
		design *doe.Design
		model  rsm.Model
	}
	var entries []entry
	add := func(name string, d *doe.Design, err error, m rsm.Model) error {
		if err != nil {
			return fmt.Errorf("experiments: T2 design %s: %w", name, err)
		}
		entries = append(entries, entry{name: name, design: d, model: m})
		return nil
	}
	ccf, err := doe.CentralComposite(k, doe.CCF, 3)
	if err := add("CCF + quadratic", ccf, err, quad); err != nil {
		return nil, err
	}
	cci, err := doe.CentralComposite(k, doe.CCI, 3)
	if err := add("CCI + quadratic", cci, err, quad); err != nil {
		return nil, err
	}
	bbd, err := doe.BoxBehnken(k, 3)
	if err := add("Box-Behnken + quadratic", bbd, err, quad); err != nil {
		return nil, err
	}
	lhs, err := doe.LatinHypercube(k, ccf.N(), cfg.Seed+1, 400)
	if err := add("LHS (same n) + quadratic", lhs, err, quad); err != nil {
		return nil, err
	}
	grid3, err := doe.FullFactorial(k, 3)
	if err != nil {
		return nil, err
	}
	dopt, err := doe.DOptimal(grid3, ccf.N(), quad.Row, cfg.Seed+2, 0)
	if err := add("D-optimal (same n) + quadratic", dopt, err, quad); err != nil {
		return nil, err
	}
	// Ablation A2: cheaper first-order models on a two-level design.
	twoLevel, err := doe.TwoLevelFactorial(k)
	if err != nil {
		return nil, err
	}
	centre := &doe.Design{Name: "c", Runs: [][]float64{make([]float64, k), make([]float64, k), make([]float64, k)}}
	folded, err := twoLevel.Append(centre)
	if err := add("2^k+3c + linear", folded, err, rsm.Linear(k)); err != nil {
		return nil, err
	}
	if err := add("2^k+3c + interactions", folded, nil, rsm.LinearWithInteractions(k)); err != nil {
		return nil, err
	}

	val := validationPoints(k, cfg.pick(6, 12), cfg.Seed+3)
	simVals := make([]float64, len(val))
	for i, x := range val {
		resp, err := p.ResponsesAt(context.Background(), x)
		if err != nil {
			return nil, err
		}
		simVals[i] = resp[core.RespStoredEnergy]
	}

	t := report.NewTable("R-T2: experiment designs compared (response: stored energy)",
		"design", "runs", "R2", "adjR2", "val_RMSE_J", "sim_time_ms")
	for _, e := range entries {
		ds, err := p.RunDesign(context.Background(), e.design, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: T2 running %s: %w", e.name, err)
		}
		fit, err := rsm.FitModel(e.model, e.design.Runs, ds.Y[core.RespStoredEnergy])
		if err != nil {
			return nil, fmt.Errorf("experiments: T2 fitting %s: %w", e.name, err)
		}
		var sse float64
		for i, x := range val {
			d := fit.Predict(x) - simVals[i]
			sse += d * d
		}
		rmse := math.Sqrt(sse / float64(len(val)))
		t.AddRow(e.name, e.design.N(), fit.R2, fit.AdjR2, rmse, ms(ds.SimTime))
	}
	t.AddNote("validation: %d shared random points, simulated with the fast engine (horizon %.0f s)", len(val), p.Horizon)
	return t, nil
}

// buildStandardSurfaces runs the CCF design and fits full-quadratic
// surfaces — the common setup for T3/T4/F2/F3/T7.
func buildStandardSurfaces(cfg Config) (*core.Problem, *core.Surfaces, *core.Dataset, error) {
	p := standardProblem(cfg)
	design, err := doe.CentralComposite(len(p.Factors), doe.CCF, 3)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := core.Build(context.Background(), core.BuildSpec{Problem: p, Design: design, Workers: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	return p, res.Surfaces, res.Dataset, nil
}

// TabT3RSMAccuracy reproduces R-T3: per-response surface accuracy at fresh
// random points — the "almost instantly but still with high accuracy"
// claim quantified.
func TabT3RSMAccuracy(cfg Config) (*report.Table, error) {
	_, s, _, err := buildStandardSurfaces(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := s.Validate(context.Background(), cfg.pick(6, 15), cfg.Seed+5)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("R-T3: RSM prediction accuracy per performance indicator",
		"response", "R2", "mean_abs_err", "max_abs_err", "mean_rel_err_pct")
	for _, row := range rep.Rows {
		t.AddRow(string(row.Response), row.R2, row.MeanAbsErr, row.MaxAbsErr, 100*row.MeanRelErr)
	}
	t.AddNote("validated at %d random points; sim %.1f ms vs RSM %.3f ms for the same predictions",
		rep.N, ms(rep.SimTime), ms(rep.RSMTime))
	return t, nil
}

// TabT4ExplorationSpeed reproduces R-T4: the cost of one design-point
// evaluation via full simulation versus via the fitted surfaces, plus the
// build cost that amortizes it.
func TabT4ExplorationSpeed(cfg Config) (*report.Table, error) {
	p, s, ds, err := buildStandardSurfaces(cfg)
	if err != nil {
		return nil, err
	}
	k := len(p.Factors)
	nSim := cfg.pick(4, 10)
	simPts := validationPoints(k, nSim, cfg.Seed+7)
	startSim := time.Now()
	for _, x := range simPts {
		if _, err := p.SimulateCoded(context.Background(), x); err != nil {
			return nil, err
		}
	}
	simTime := time.Since(startSim)

	nRSM := 200000
	rsmPts := validationPoints(k, 1000, cfg.Seed+8)
	fit := s.Fits[core.RespStoredEnergy]
	startRSM := time.Now()
	var sink float64
	for i := 0; i < nRSM; i++ {
		sink += fit.Predict(rsmPts[i%len(rsmPts)])
	}
	rsmTime := time.Since(startRSM)
	_ = sink

	perSim := simTime / time.Duration(nSim)
	perRSM := rsmTime / time.Duration(nRSM)
	t := report.NewTable("R-T4: cost of one design-point evaluation",
		"evaluator", "evals", "total_ms", "per_eval_us", "speedup_x")
	t.AddRow("full simulation (fast engine)", nSim, ms(simTime), float64(perSim)/1e3, 1.0)
	t.AddRow("fitted RSM", nRSM, ms(rsmTime), float64(perRSM)/1e3, float64(perSim)/float64(perRSM))
	t.AddNote("RSM build cost: %d design runs, %.1f ms simulation + %.3f ms fitting — amortized after ~%d explored points",
		ds.Design.N(), ms(ds.SimTime), ms(s.FitTime), ds.Design.N())
	return t, nil
}

// FigF2Surface reproduces R-F2: the stored-energy response surface over
// the duty-cycle period × supercapacitor plane (three supercap slices),
// with direct simulations overlaid to show the surface tracks the
// simulator.
func FigF2Surface(cfg Config) (*report.Figure, error) {
	p, s, _, err := buildStandardSurfaces(cfg)
	if err != nil {
		return nil, err
	}
	ev, err := s.Evaluator(core.RespStoredEnergy)
	if err != nil {
		return nil, err
	}
	fig := report.NewFigure("R-F2: stored-energy surface over period x supercap (vth, freq at centre)", "period_coded", "stored_J")
	nLine := cfg.pick(9, 21)
	nSim := cfg.pick(3, 5)
	for _, slice := range []float64{-1, 0, 1} {
		base := []float64{0, slice, 0, 0}
		pts, err := explore.Sweep1D(ev, base, 0, nLine, nil)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, pt := range pts {
			xs[i], ys[i] = pt.Coded, pt.Y
		}
		if err := fig.Add(fmt.Sprintf("rsm@cap=%+.0f", slice), xs, ys); err != nil {
			return nil, err
		}
		// Direct simulations at a few points on the same slice.
		sx := make([]float64, 0, nSim)
		sy := make([]float64, 0, nSim)
		for i := 0; i < nSim; i++ {
			cx := -1 + 2*float64(i)/float64(nSim-1)
			resp, err := p.ResponsesAt(context.Background(), []float64{cx, slice, 0, 0})
			if err != nil {
				return nil, err
			}
			sx = append(sx, cx)
			sy = append(sy, resp[core.RespStoredEnergy])
		}
		if err := fig.Add(fmt.Sprintf("sim@cap=%+.0f", slice), sx, sy); err != nil {
			return nil, err
		}
	}
	fig.AddNote("surface from CCF design; sim points are fresh confirmation runs")
	return fig, nil
}

// FigF3Tradeoff reproduces R-F3: the packets-delivered versus
// net-energy-margin trade-off across the duty-cycle/threshold plane, with
// the Pareto front extracted on the fitted surfaces.
func FigF3Tradeoff(cfg Config) (*report.Figure, error) {
	_, s, _, err := buildStandardSurfaces(cfg)
	if err != nil {
		return nil, err
	}
	evPackets, err := s.Evaluator(core.RespPackets)
	if err != nil {
		return nil, err
	}
	evMargin, err := s.Evaluator(core.RespNetMargin)
	if err != nil {
		return nil, err
	}
	// Candidate grid over period × vth at the centre of the other factors.
	n := cfg.pick(7, 15)
	var candidates [][]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			candidates = append(candidates, []float64{
				-1 + 2*float64(i)/float64(n-1), 0,
				-1 + 2*float64(j)/float64(n-1), 0,
			})
		}
	}
	cands := explore.EvaluateAll(candidates, []explore.Evaluator{evPackets, evMargin})
	front := explore.ParetoFront(cands)

	fig := report.NewFigure("R-F3: packets vs net energy margin trade-off (Pareto front on the RSM)", "packets", "margin_mJ")
	allX := make([]float64, len(cands))
	allY := make([]float64, len(cands))
	for i, c := range cands {
		allX[i], allY[i] = c.Objectives[0], c.Objectives[1]
	}
	if err := fig.Add("all_candidates", allX, allY); err != nil {
		return nil, err
	}
	fx := make([]float64, len(front))
	fy := make([]float64, len(front))
	for i, c := range front {
		fx[i], fy[i] = c.Objectives[0], c.Objectives[1]
	}
	if err := fig.Add("pareto_front", fx, fy); err != nil {
		return nil, err
	}
	fig.AddNote("%d candidates on the period x vth plane; %d on the front; evaluation cost: surface only", len(cands), len(front))
	return fig, nil
}

// TabT7ANOVA reproduces R-T7: the ANOVA of the stored-energy surface —
// which design parameters (and interactions) significantly drive the
// response.
func TabT7ANOVA(cfg Config) (*report.Table, error) {
	p, s, _, err := buildStandardSurfaces(cfg)
	if err != nil {
		return nil, err
	}
	fit := s.Fits[core.RespStoredEnergy]
	t := report.NewTable("R-T7: ANOVA of the stored-energy response surface",
		"source", "dof", "SS", "F", "p", "signif")
	for _, row := range fit.ANOVA() {
		if row.Source == "regression" {
			t.AddRow(row.Source, row.DoF, row.SS, row.F, row.P, sigStars(row.P))
		} else {
			t.AddRow(row.Source, row.DoF, row.SS, "", "", "")
		}
	}
	names := make([]string, len(p.Factors))
	for i, f := range p.Factors {
		names[i] = f.Name
	}
	terms := fit.Model.Terms
	ts := fit.TStats()
	ps := fit.PValues()
	for i, term := range terms {
		if term.Degree() == 0 {
			continue
		}
		f := ts[i] * ts[i]
		t.AddRow("  "+term.Label(names), 1, f*fit.Sigma2, f, ps[i], sigStars(ps[i]))
	}
	t.AddNote("R² = %.4f, adjusted R² = %.4f, PRESS R² = %.4f", fit.R2, fit.AdjR2, fit.R2Pred)
	return t, nil
}

func sigStars(p float64) string {
	switch {
	case p < 0.001:
		return "***"
	case p < 0.01:
		return "**"
	case p < 0.05:
		return "*"
	case p < 0.1:
		return "."
	default:
		return ""
	}
}

// FigF5BuildCost reproduces R-F5: surface quality and build cost versus
// the number of design runs (maximin LHS of increasing size) — where the
// "moderate number of simulations" sits on the accuracy/cost curve.
func FigF5BuildCost(cfg Config) (*report.Figure, error) {
	p := standardProblem(cfg)
	k := len(p.Factors)
	sizes := []int{16, 24, 40, 64}
	if cfg.Quick {
		sizes = []int{16, 24}
	}
	val := validationPoints(k, cfg.pick(5, 10), cfg.Seed+11)
	simVals := make([]float64, len(val))
	for i, x := range val {
		resp, err := p.ResponsesAt(context.Background(), x)
		if err != nil {
			return nil, err
		}
		simVals[i] = resp[core.RespStoredEnergy]
	}
	var ns, rmses, costs []float64
	for _, n := range sizes {
		d, err := doe.LatinHypercube(k, n, cfg.Seed+12, 300)
		if err != nil {
			return nil, err
		}
		ds, err := p.RunDesign(context.Background(), d, 1)
		if err != nil {
			return nil, err
		}
		fit, err := rsm.FitModel(rsm.FullQuadratic(k), d.Runs, ds.Y[core.RespStoredEnergy])
		if err != nil {
			return nil, err
		}
		var sse float64
		for i, x := range val {
			diff := fit.Predict(x) - simVals[i]
			sse += diff * diff
		}
		ns = append(ns, float64(n))
		rmses = append(rmses, math.Sqrt(sse/float64(len(val))))
		costs = append(costs, ms(ds.SimTime))
	}
	fig := report.NewFigure("R-F5: RSM quality and build cost vs design size (LHS)", "runs", "value")
	if err := fig.Add("val_RMSE_J", ns, rmses); err != nil {
		return nil, err
	}
	if err := fig.Add("sim_cost_ms", ns, costs); err != nil {
		return nil, err
	}
	fig.AddNote("quadratic model has %d coefficients; validation on %d fresh simulations", rsm.FullQuadratic(k).P(), len(val))
	return fig, nil
}

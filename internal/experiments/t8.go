package experiments

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/report"
	"repro/internal/rsm"
)

// TabT8Refinement demonstrates sequential region refinement — the
// classical RSM response to a response the global quadratic fits poorly
// (here: harvested power, whose frequency-offset axis carries the
// Lorentzian resonance peak, flagged in R-T3). The same CCF design is
// re-run over progressively smaller regions centred on the design centre;
// validation error against fresh simulations inside the innermost region
// falls as the region shrinks, and the lack-of-fit statistic relaxes.
func TabT8Refinement(cfg Config) (*report.Table, error) {
	full := standardProblem(cfg)
	k := len(full.Factors)
	scales := []float64{1.0, 0.5, 0.25}

	// Shared validation points: natural-unit points inside the SMALLEST
	// region, so every surface is scored on identical physical designs.
	smallest, err := full.Subregion(make([]float64, k), scales[len(scales)-1])
	if err != nil {
		return nil, err
	}
	nVal := cfg.pick(4, 8)
	valNatural := make([][]float64, nVal)
	for i := range valNatural {
		nat := make([]float64, k)
		for j, f := range smallest.Factors {
			// Deterministic low-discrepancy-ish spread over the region.
			nat[j] = f.Min + (0.1+0.8*float64((i*(j+3))%nVal)/float64(nVal))*(f.Max-f.Min)
		}
		valNatural[i] = nat
	}
	simVals := make([]float64, nVal)
	for i, nat := range valNatural {
		coded := make([]float64, k)
		for j, f := range full.Factors {
			coded[j] = f.Encode(nat[j])
		}
		resp, err := full.ResponsesAt(context.Background(), coded)
		if err != nil {
			return nil, err
		}
		simVals[i] = resp[core.RespHarvestedPower]
	}

	t := report.NewTable("R-T8: sequential region refinement of the harvested-power surface",
		"region_scale", "runs", "R2", "val_RMSE_uW", "lack_of_fit")
	design, err := doe.CentralComposite(k, doe.CCF, 3)
	if err != nil {
		return nil, err
	}
	for _, scale := range scales {
		prob := full
		if scale < 1 {
			prob, err = full.Subregion(make([]float64, k), scale)
			if err != nil {
				return nil, err
			}
		}
		ds, err := prob.RunDesign(context.Background(), design, 0)
		if err != nil {
			return nil, err
		}
		fit, err := rsm.FitModel(rsm.FullQuadratic(k), design.Runs, ds.Y[core.RespHarvestedPower])
		if err != nil {
			return nil, err
		}
		var sse float64
		for i, nat := range valNatural {
			coded := make([]float64, k)
			for j, f := range prob.Factors {
				coded[j] = f.Encode(nat[j])
			}
			d := fit.Predict(coded) - simVals[i]
			sse += d * d
		}
		rmse := math.Sqrt(sse / float64(nVal))

		lofNote := "n/a"
		if lof, err := fit.LackOfFitTest(design.Runs, ds.Y[core.RespHarvestedPower]); err == nil {
			if math.IsInf(lof.F, 1) {
				lofNote = "deterministic residual"
			} else if lof.Significant(0.05) {
				lofNote = "significant"
			} else {
				lofNote = "not significant"
			}
		}
		t.AddRow(scale, design.N(), fit.R2, rmse, lofNote)
	}
	t.AddNote("validation: %d fixed physical design points inside the innermost region", nVal)
	t.AddNote("the resonance peak (R-T3 caveat) becomes quadratic-friendly as the region shrinks")
	return t, nil
}

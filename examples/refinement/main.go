// Refinement example: sequential response-surface methodology. When a
// response refuses to be quadratic over the full design region (here:
// harvested power, which carries the harvester's Lorentzian resonance
// peak), the classical move is to shrink the region around the point of
// interest and re-run the same small design. This example quantifies the
// improvement and shows the lack-of-fit diagnostic that triggers it.
//
// Run with: go run ./examples/refinement
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/report"
	"repro/internal/rsm"
)

func main() {
	full := core.StandardProblem(0.6, 30)
	k := len(full.Factors)
	design, err := doe.CentralComposite(k, doe.CCF, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Fixed physical validation points inside the innermost region, so
	// every surface is judged on identical designs.
	inner, err := full.Subregion(make([]float64, k), 0.25)
	if err != nil {
		log.Fatal(err)
	}
	const nVal = 6
	valNatural := make([][]float64, nVal)
	for i := range valNatural {
		nat := make([]float64, k)
		for j, f := range inner.Factors {
			nat[j] = f.Min + (0.15+0.7*float64((i*(j+2))%nVal)/float64(nVal))*(f.Max-f.Min)
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
			log.Fatal(err)
		}
		simVals[i] = resp[core.RespHarvestedPower]
	}

	t := report.NewTable("sequential refinement of the harvested-power surface",
		"region", "R2", "PRESS_R2", "val_RMSE_uW")
	for _, scale := range []float64{1.0, 0.5, 0.25} {
		prob := full
		if scale < 1 {
			prob, err = full.Subregion(make([]float64, k), scale)
			if err != nil {
				log.Fatal(err)
			}
		}
		ds, err := prob.RunDesign(context.Background(), design, 0)
		if err != nil {
			log.Fatal(err)
		}
		fit, err := rsm.FitModel(rsm.FullQuadratic(k), design.Runs, ds.Y[core.RespHarvestedPower])
		if err != nil {
			log.Fatal(err)
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
		t.AddRow(fmt.Sprintf("scale %.2f", scale), fit.R2, fit.R2Pred, math.Sqrt(sse/nVal))
	}
	t.AddNote("same 27-run CCF each time; validation on %d fixed designs inside the 0.25x region", nVal)
	fmt.Println(t.String())

	fmt.Println("Each refinement costs one more small designed experiment — still far")
	fmt.Println("cheaper than any simulator-in-the-loop search — and buys the high")
	fmt.Println("accuracy the paper promises, even for the resonance-shaped response.")
}

// Quickstart: the complete DoE-based design flow in one file.
//
//  1. Define the design problem (factors, responses, simulation scenario).
//  2. Run a central composite design on the fast whole-node simulator.
//  3. Fit second-order response surfaces.
//  4. Explore the captured design space instantly and pick an optimum,
//     confirming it with a single simulation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/report"
	"repro/internal/rsm"
)

func main() {
	// The standard 4-factor sensor-node problem: measurement period,
	// supercapacitor size, transmit threshold and excitation frequency
	// offset, simulated for 30 s per design point at 0.6 m/s².
	p := core.StandardProblem(0.6, 30)

	// A face-centred central composite design: 2^4 corners + 8 axial
	// points + 3 centre runs = 27 simulations. This is the "moderate
	// number of simulations" the paper spends once.
	design, err := doe.CentralComposite(len(p.Factors), doe.CCF, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %d simulations (%s)...\n", design.N(), design.Name)
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulation phase: %v\n\n", ds.SimTime.Round(1e6))

	// Fit one full-quadratic surface per performance indicator.
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(len(p.Factors)))
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable("fitted response surfaces", "response", "R2", "adjR2")
	for _, id := range p.Responses {
		fit := s.Fits[id]
		t.AddRow(string(id), fit.R2, fit.AdjR2)
	}
	fmt.Println(t.String())

	// The design space is now captured: evaluate any what-if instantly.
	probe := []float64{-0.5, 0.5, 0, 0} // short period, large supercap
	pkts, err := s.Predict(core.RespPackets, probe)
	if err != nil {
		log.Fatal(err)
	}
	margin, err := s.Predict(core.RespNetMargin, probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("what-if at coded %v: %.1f packets, %.2f mJ margin (no simulation run)\n\n", probe, pkts, margin)

	// Optimize stored energy on the surface; one confirming simulation.
	best, err := s.Optimize(context.Background(), core.RespStoredEnergy, true, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	ot := report.NewTable("optimum (stored energy)", "factor", "value", "unit")
	for i, f := range p.Factors {
		ot.AddRow(f.Name, best.Natural[i], f.Unit)
	}
	ot.AddNote("surface predicted %.4g J; confirming simulation measured %.4g J (%.2f%% apart)",
		best.Predicted, best.Confirmed, 100*best.RelError)
	fmt.Println(ot.String())
}

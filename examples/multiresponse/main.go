// Multiresponse example: Derringer–Suich desirability optimization — the
// classical RSM answer to "I want throughput AND a sustainable energy
// budget AND fast first contact", folded into one score and optimized on
// the fitted surfaces.
//
// Run with: go run ./examples/multiresponse
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/opt"
	"repro/internal/report"
)

func main() {
	p := core.StandardProblem(0.6, 30)
	design, err := doe.CentralComposite(len(p.Factors), doe.CCF, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("building surfaces from %d simulations (parallel)...\n\n", design.N())
	built, err := core.Build(context.Background(), core.BuildSpec{Problem: p, Design: design})
	if err != nil {
		log.Fatal(err)
	}
	s := built.Surfaces

	// The designer's brief, as desirability shapes:
	//  - packets: worthless below 2, fully satisfying at 12+;
	//  - net energy margin: unacceptable below −3 mJ, ideal above +0.5 mJ
	//    (twice the weight: sustainability trumps throughput);
	//  - time to first packet: great under 5 s, unacceptable beyond 25 s.
	goals := []core.DesirabilityGoal{
		{Response: core.RespPackets, Shape: opt.Larger{Lo: 2, Hi: 12}},
		{Response: core.RespNetMargin, Shape: opt.Larger{Lo: -3, Hi: 0.5}, Weight: 2},
		{Response: core.RespFirstTx, Shape: opt.Smaller{Lo: 5, Hi: 25}},
	}
	res, err := s.OptimizeDesirability(context.Background(), goals, 6, 1)
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("compromise design (composite desirability)", "factor", "value", "unit")
	for i, f := range p.Factors {
		t.AddRow(f.Name, res.Natural[i], f.Unit)
	}
	t.AddNote("composite desirability: %.3f predicted, %.3f confirmed by one simulation", res.Score, res.Confirmed)
	fmt.Println(t.String())

	rt := report.NewTable("per-response outcome at the compromise", "response", "surface", "simulated")
	for _, g := range goals {
		rt.AddRow(string(g.Response), res.Predicted[g.Response], res.Simulated[g.Response])
	}
	fmt.Println(rt.String())

	fmt.Println("A zero composite score would mean some requirement is impossible in")
	fmt.Println("this region — the cue to relax a shape or refine the design space")
	fmt.Println("with Problem.Subregion and a fresh (small) designed experiment.")
}

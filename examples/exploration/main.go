// Exploration example: interactive-style design-space exploration on
// fitted response surfaces — sweeps, a 2-D surface slice, a constrained
// Pareto trade-off — all without re-running the simulator after the
// initial designed experiment.
//
// Run with: go run ./examples/exploration
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/explore"
	"repro/internal/report"
)

func main() {
	p := core.StandardProblem(0.6, 30)
	design, err := doe.CentralComposite(len(p.Factors), doe.CCF, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("building surfaces from %d simulations...\n\n", design.N())
	res, err := core.Build(context.Background(), core.BuildSpec{Problem: p, Design: design, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	s := res.Surfaces

	evPackets, err := s.Evaluator(core.RespPackets)
	if err != nil {
		log.Fatal(err)
	}
	evMargin, err := s.Evaluator(core.RespNetMargin)
	if err != nil {
		log.Fatal(err)
	}
	evStored, err := s.Evaluator(core.RespStoredEnergy)
	if err != nil {
		log.Fatal(err)
	}

	// 1-D sweep: packets vs measurement period, everything else centred.
	periodFactor := p.Factors[0]
	pts, err := explore.Sweep1D(evPackets, []float64{0, 0, 0, 0}, 0, 11, periodFactor.Decode)
	if err != nil {
		log.Fatal(err)
	}
	fig := report.NewFigure("packets vs measurement period (surface sweep)", "period_s", "packets")
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i], ys[i] = pt.Natural, pt.Y
	}
	if err := fig.Add("packets", xs, ys); err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig.String())

	// 2-D slice: stored energy over period × supercap.
	grid, err := explore.Surface2D(evStored, []float64{0, 0, 0, 0}, 0, 1, 9)
	if err != nil {
		log.Fatal(err)
	}
	mn, mx := grid.MinMax()
	fmt.Printf("stored-energy surface over period x supercap: min %.3g J, max %.3g J\n\n", mn, mx)

	// Constrained trade-off: among designs with a non-negative energy
	// margin, which maximize packets?
	var candidates [][]float64
	for i := 0; i < 13; i++ {
		for j := 0; j < 13; j++ {
			candidates = append(candidates, []float64{
				-1 + 2*float64(i)/12, 0, -1 + 2*float64(j)/12, 0,
			})
		}
	}
	cands := explore.EvaluateAll(candidates, []explore.Evaluator{evPackets, evMargin})
	feasible := explore.Filter(cands, explore.AtLeast(1, 0)) // margin ≥ 0
	front := explore.ParetoFront(feasible)
	t := report.NewTable("energy-neutral Pareto designs (period x vth plane)",
		"period_s", "vth_V", "packets", "margin_mJ")
	for _, c := range front {
		t.AddRow(p.Factors[0].Decode(c.X[0]), p.Factors[2].Decode(c.X[2]), c.Objectives[0], c.Objectives[1])
	}
	t.AddNote("%d of %d candidates feasible; %d on the front; zero simulations used for this analysis",
		len(feasible), len(cands), len(front))
	fmt.Println(t.String())
}

package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/opt"
	"repro/internal/rsm"
	"repro/internal/sim"
)

func TestRunDesignParallelMatchesSerial(t *testing.T) {
	p := quickProblem()
	design, err := doe.CentralComposite(3, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	serial := &Dataset{Y: map[ResponseID][]float64{}}
	for _, x := range design.Runs {
		resp, err := p.ResponsesAt(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range p.Responses {
			serial.Y[id] = append(serial.Y[id], resp[id])
		}
	}
	parallel, err := p.RunDesign(context.Background(), design, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p.Responses {
		a, b := serial.Y[id], parallel.Y[id]
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", id)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s run %d: serial %v vs parallel %v", id, i, a[i], b[i])
			}
		}
	}
}

func TestRunDesignParallelValidation(t *testing.T) {
	p := quickProblem()
	if _, err := p.RunDesign(context.Background(), &doe.Design{}, 2); err == nil {
		t.Fatal("empty design must be rejected")
	}
	d4, _ := doe.TwoLevelFactorial(4)
	if _, err := p.RunDesign(context.Background(), d4, 2); err == nil {
		t.Fatal("factor mismatch must be rejected")
	}
	// Default worker count works.
	small, _ := doe.TwoLevelFactorial(3)
	if _, err := p.RunDesign(context.Background(), small, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunDesignParallelPropagatesErrors(t *testing.T) {
	p := quickProblem()
	fail := *p
	fail.Build = func(nat []float64) (Scenario, error) {
		if nat[0] > 10 {
			return Scenario{}, fmt.Errorf("synthetic failure")
		}
		return p.Build(nat)
	}
	design, _ := doe.TwoLevelFactorial(3)
	if _, err := fail.RunDesign(context.Background(), design, 3); err == nil {
		t.Fatal("worker error must propagate")
	}
}

func TestRunDesignContextPreCancelled(t *testing.T) {
	p := quickProblem()
	design, _ := doe.TwoLevelFactorial(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunDesign(ctx, design, 2); err == nil {
		t.Fatal("cancelled context must abort the run")
	}
}

func TestRunDesignContextAbortsEarlyOnError(t *testing.T) {
	// With one worker the handout is strictly sequential, so a failure at
	// run 2 must stop the design after exactly 3 simulations — the old
	// runner executed all of them before reporting the error.
	p := quickProblem()
	var sims atomic.Int64
	fail := *p
	build := p.Build
	fail.Build = func(nat []float64) (Scenario, error) {
		if sims.Add(1) == 3 {
			return Scenario{}, fmt.Errorf("synthetic failure")
		}
		return build(nat)
	}
	design, _ := doe.TwoLevelFactorial(3) // 8 runs
	_, err := fail.RunDesign(context.Background(), design, 1)
	if err == nil {
		t.Fatal("worker error must propagate")
	}
	if got := sims.Load(); got != 3 {
		t.Fatalf("ran %d simulations after the failure, want 3", got)
	}
}

func TestRunDesignContextCancelMidRun(t *testing.T) {
	// Cancel while the first simulation is in flight: the single worker
	// must abandon the remaining runs.
	p := quickProblem()
	ctx, cancel := context.WithCancel(context.Background())
	var sims atomic.Int64
	blocked := *p
	build := p.Build
	blocked.Build = func(nat []float64) (Scenario, error) {
		sims.Add(1)
		cancel()
		<-ctx.Done()
		return build(nat)
	}
	design, _ := doe.TwoLevelFactorial(3)
	_, err := blocked.RunDesign(ctx, design, 1)
	if err == nil {
		t.Fatal("mid-run cancellation must abort the design")
	}
	// The in-flight run completes (the simulator is not preemptible) but
	// nothing new starts. AfterFunc delivery is asynchronous, so allow the
	// worker to have started at most one more run before observing it.
	if got := sims.Load(); got > 2 {
		t.Fatalf("started %d simulations after cancellation, want ≤ 2", got)
	}
	if ds, err := p.RunDesign(context.Background(), design, 2); err != nil {
		t.Fatal(err)
	} else if ds.SimWork <= 0 || ds.Speedup() <= 0 {
		t.Fatalf("work accounting missing: work %v speedup %v", ds.SimWork, ds.Speedup())
	}
}

func TestSubregion(t *testing.T) {
	p := StandardProblem(0.6, 20)
	sub, err := p.Subregion([]float64{0, 0, 0, 0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sub.Factors {
		orig := p.Factors[i]
		wantWidth := 0.5 * (orig.Max - orig.Min)
		if math.Abs((f.Max-f.Min)-wantWidth) > 1e-9 {
			t.Fatalf("factor %s width %v, want %v", f.Name, f.Max-f.Min, wantWidth)
		}
		mid := (f.Min + f.Max) / 2
		if math.Abs(mid-(orig.Min+orig.Max)/2) > 1e-9 {
			t.Fatalf("factor %s not centred", f.Name)
		}
	}
	// Centre near the edge clamps but keeps the width.
	sub2, err := p.Subregion([]float64{1, 1, 1, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sub2.Factors {
		orig := p.Factors[i]
		if f.Max > orig.Max+1e-12 || f.Min < orig.Min-1e-12 {
			t.Fatalf("factor %s escaped the original range", f.Name)
		}
		if math.Abs((f.Max-f.Min)-0.5*(orig.Max-orig.Min)) > 1e-9 {
			t.Fatalf("factor %s width collapsed at the edge", f.Name)
		}
	}
	if _, err := p.Subregion([]float64{0}, 0.5); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
	if _, err := p.Subregion([]float64{0, 0, 0, 0}, 0); err == nil {
		t.Fatal("zero scale must be rejected")
	}
	if _, err := p.Subregion([]float64{0, 0, 0, 0}, 1.5); err == nil {
		t.Fatal("scale > 1 must be rejected")
	}
}

func TestSubregionRefinementImprovesSpikyResponse(t *testing.T) {
	// The sequential-RSM claim: re-fitting over a smaller region improves
	// prediction of the resonance-shaped harvested-power response.
	if testing.Short() {
		t.Skip("refinement runs two designed experiments")
	}
	full := StandardProblem(0.6, 15)
	sub, err := full.Subregion(make([]float64, 4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(p *Problem) float64 {
		design, err := doe.CentralComposite(4, doe.CCF, 2)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := p.RunDesign(context.Background(), design, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(4))
		if err != nil {
			t.Fatal(err)
		}
		// Validation points drawn inside the SUB region for both, so the
		// comparison is apples to apples: encode sub-region natural points
		// into each problem's own coded units.
		var sumErr float64
		const n = 5
		for i := 0; i < n; i++ {
			natural := make([]float64, 4)
			for j, f := range sub.Factors {
				frac := float64(i+1) / float64(n+2)
				natural[j] = f.Min + frac*(f.Max-f.Min)
			}
			coded := make([]float64, 4)
			for j, f := range p.Factors {
				coded[j] = f.Encode(natural[j])
			}
			resp, err := p.ResponsesAt(context.Background(), coded)
			if err != nil {
				t.Fatal(err)
			}
			pred := s.Fits[RespHarvestedPower].Predict(coded)
			sumErr += math.Abs(pred - resp[RespHarvestedPower])
		}
		return sumErr / n
	}
	errFull := probe(full)
	errSub := probe(sub)
	if errSub > errFull {
		t.Fatalf("refinement did not help: sub-region err %v vs full %v", errSub, errFull)
	}
}

func TestOptimizeDesirability(t *testing.T) {
	p := quickProblem()
	design, err := doe.CentralComposite(3, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	goals := []DesirabilityGoal{
		{Response: RespPackets, Shape: opt.Larger{Lo: 0, Hi: 10}},
		{Response: RespNetMargin, Shape: opt.Larger{Lo: -5, Hi: 1}, Weight: 2},
	}
	res, err := s.OptimizeDesirability(context.Background(), goals, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 || res.Score > 1 {
		t.Fatalf("composite score %v outside (0,1]", res.Score)
	}
	if res.Confirmed < 0 || res.Confirmed > 1 {
		t.Fatalf("confirmed score %v outside [0,1]", res.Confirmed)
	}
	if len(res.Predicted) != 2 || len(res.Simulated) != 2 {
		t.Fatal("per-response maps incomplete")
	}
	if res.Evals == 0 {
		t.Fatal("evaluations not counted")
	}
	// Errors.
	if _, err := s.OptimizeDesirability(context.Background(), nil, 1, 1); err == nil {
		t.Fatal("no goals must be rejected")
	}
	bad := []DesirabilityGoal{{Response: ResponseID("nope"), Shape: opt.Larger{Lo: 0, Hi: 1}}}
	if _, err := s.OptimizeDesirability(context.Background(), bad, 1, 1); err == nil {
		t.Fatal("unknown response must be rejected")
	}
}

// quickProblem wiring sanity for the reference engine override: the core
// flow must run with RunReference as well (a short horizon keeps it fast).
func TestProblemWithReferenceEngine(t *testing.T) {
	p := quickProblem()
	p.Horizon = 2
	p.Engine = sim.RunReference
	resp, err := p.ResponsesAt(context.Background(), []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp[RespStoredEnergy]; !ok {
		t.Fatal("reference-engine response missing")
	}
}

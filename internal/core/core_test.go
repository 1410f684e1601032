package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/doe"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/vibration"
)

// quickProblem returns a small, fast problem for tests: short horizon,
// 3 factors.
func quickProblem() *Problem {
	p := StandardProblem(0.6, 20)
	// Trim to 3 factors (drop the frequency offset) to keep CCDs small.
	p.Factors = p.Factors[:3]
	build := p.Build
	p.Build = func(nat []float64) (Scenario, error) {
		return build(append(append([]float64(nil), nat...), 0))
	}
	return p
}

func TestProblemValidate(t *testing.T) {
	p := StandardProblem(0.6, 30)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Factors = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no factors must be rejected")
	}
	bad = *p
	bad.Responses = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no responses must be rejected")
	}
	bad = *p
	bad.Build = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no Build must be rejected")
	}
	bad = *p
	bad.Horizon = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero horizon must be rejected")
	}
}

func TestExtractAllResponses(t *testing.T) {
	d := sim.DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
	r, err := sim.RunFast(d, sim.Config{Horizon: 15, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range AllResponses() {
		v, err := Extract(id, r, 15)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if math.IsNaN(v) {
			t.Fatalf("%s extracted NaN", id)
		}
	}
	if _, err := Extract(ResponseID("nope"), r, 15); err == nil {
		t.Fatal("unknown response must error")
	}
}

func TestExtractCensorsFirstTx(t *testing.T) {
	d := sim.DefaultDesign()
	d.InitialStoreV = 0 // node never powers: no packets
	src := vibration.Sine{Amplitude: 0.05, Freq: 20}
	r, err := sim.RunFast(d, sim.Config{Horizon: 10, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Extract(RespFirstTx, r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("censored first-tx = %v, want horizon 10", v)
	}
}

func TestRunDesignAndSurfaces(t *testing.T) {
	p := quickProblem()
	design, err := doe.CentralComposite(3, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.SimTime <= 0 {
		t.Fatal("simulation time not recorded")
	}
	for _, id := range p.Responses {
		if len(ds.Y[id]) != design.N() {
			t.Fatalf("%s has %d values, want %d", id, len(ds.Y[id]), design.N())
		}
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Fits) != len(p.Responses) {
		t.Fatal("missing fits")
	}
	// The harvested-power surface must be usable: R² meaningfully high
	// (power varies smoothly with these factors).
	fit := s.Fits[RespHarvestedPower]
	if fit.R2 < 0.5 {
		t.Fatalf("harvested-power R² = %v, surface useless", fit.R2)
	}
	// Prediction runs and returns finite values.
	v, err := s.Predict(RespStoredEnergy, []float64{0.2, -0.3, 0.1})
	if err != nil || math.IsNaN(v) {
		t.Fatalf("predict: %v %v", v, err)
	}
	if _, err := s.Predict(ResponseID("nope"), []float64{0, 0, 0}); err == nil {
		t.Fatal("unknown response must error")
	}
	ev, err := s.Evaluator(RespPackets)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev([]float64{0, 0, 0}); math.IsNaN(got) {
		t.Fatal("evaluator returned NaN")
	}
}

func TestRunDesignValidation(t *testing.T) {
	p := quickProblem()
	if _, err := p.RunDesign(context.Background(), &doe.Design{}, 1); err == nil {
		t.Fatal("empty design must error")
	}
	d4, _ := doe.TwoLevelFactorial(4)
	if _, err := p.RunDesign(context.Background(), d4, 1); err == nil {
		t.Fatal("factor-count mismatch must error")
	}
}

func TestBuildSurfacesValidation(t *testing.T) {
	p := quickProblem()
	design, _ := doe.CentralComposite(3, doe.CCF, 2)
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BuildSurfaces(ds, rsm.FullQuadratic(4)); err == nil {
		t.Fatal("model factor mismatch must error")
	}
	delete(ds.Y, RespPackets)
	if _, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3)); err == nil {
		t.Fatal("missing response data must error")
	}
}

func TestValidationReportAccuracy(t *testing.T) {
	p := quickProblem()
	// A private cache keeps the timed validation simulations real: a
	// repeated run (-count=2) would otherwise answer them from the shared
	// DefaultRunner.
	p.Runner = simcache.New(simcache.Options{})
	design, err := doe.CentralComposite(3, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Validate(context.Background(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != len(p.Responses) {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The headline claim: RSM evaluation is dramatically cheaper than
	// simulation for the same points. The race detector skews these
	// microsecond-scale intervals by an order of magnitude, so the ratio
	// is only asserted in normal builds.
	if !raceEnabled && rep.RSMTime*100 > rep.SimTime {
		t.Fatalf("RSM time %v not ≪ sim time %v", rep.RSMTime, rep.SimTime)
	}
	// The smoothest response (stored energy ≈ ½CV², near-linear in the
	// supercap factor) must be predicted within a modest fraction of its
	// range when interpolating inside the fitted cube. Harvested power is
	// asserted at bench horizons (R-T3), where its factor structure is
	// pronounced; at this short test horizon its range is a few µW and a
	// range-relative bound would be noise-dominated.
	for _, row := range rep.Rows {
		if row.Response == RespStoredEnergy && row.MeanRelErr > 0.15 {
			t.Fatalf("stored-energy mean relative error %v too large", row.MeanRelErr)
		}
	}
	if _, err := s.Validate(context.Background(), 0, 1); err == nil {
		t.Fatal("n=0 must error")
	}
}

func TestOptimizeConfirmsWithSimulation(t *testing.T) {
	p := quickProblem()
	design, err := doe.CentralComposite(3, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Optimize(context.Background(), RespStoredEnergy, true, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Coded) != 3 || len(res.Natural) != 3 {
		t.Fatal("optimum dimensions wrong")
	}
	for _, v := range res.Coded {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("optimum %v escapes the coded cube", res.Coded)
		}
	}
	if res.Evals == 0 {
		t.Fatal("no evaluations counted")
	}
	// The surface optimum must be at least as good as the design centre
	// when simulated.
	centre, err := p.ResponsesAt(context.Background(), []float64{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Confirmed < centre[RespStoredEnergy]*0.8 {
		t.Fatalf("confirmed optimum %v worse than centre %v", res.Confirmed, centre[RespStoredEnergy])
	}
	if _, err := s.Optimize(context.Background(), ResponseID("nope"), true, 1, 1); err == nil {
		t.Fatal("unknown response must error")
	}
}

func TestSimulateCodedMatchesResponsesAt(t *testing.T) {
	p := quickProblem()
	x := []float64{0.5, -0.5, 0}
	r, err := p.SimulateCoded(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.ResponsesAt(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Extract(RespPackets, r, p.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if resp[RespPackets] != want {
		t.Fatalf("ResponsesAt inconsistent with SimulateCoded: %v vs %v", resp[RespPackets], want)
	}
}

func TestStandardProblemFactorsDriveTheSystem(t *testing.T) {
	p := StandardProblem(0.6, 20)
	// Longer period (factor 0 high) must produce fewer packets.
	fast, err := p.ResponsesAt(context.Background(), []float64{-1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := p.ResponsesAt(context.Background(), []float64{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if slow[RespPackets] >= fast[RespPackets] {
		t.Fatalf("period factor inert: %v vs %v packets", slow[RespPackets], fast[RespPackets])
	}
	// Frequency offset (factor 3) away from resonance must cut harvest.
	onRes, err := p.ResponsesAt(context.Background(), []float64{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	offRes, err := p.ResponsesAt(context.Background(), []float64{0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if offRes[RespHarvestedPower] >= onRes[RespHarvestedPower] {
		t.Fatalf("frequency factor inert: %v vs %v µW", offRes[RespHarvestedPower], onRes[RespHarvestedPower])
	}
}

// surfacesDataset returns the standard problem with a synthetic dataset on
// the CCF k=4 design: six smooth responses, each with its own curvature, so
// every surface has real residuals and leverage-driven PRESS.
func surfacesDataset(tb testing.TB) (*Problem, *Dataset) {
	tb.Helper()
	p := StandardProblem(0.6, 60)
	design, err := NamedDesign("ccf", len(p.Factors), 0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ds := &Dataset{Design: design, Y: make(map[ResponseID][]float64, len(p.Responses))}
	for r, id := range p.Responses {
		y := make([]float64, design.N())
		for i, x := range design.Runs {
			v := float64(r + 1)
			for j, xj := range x {
				v += float64(j-r)*xj + 0.2*float64(r)*xj*xj
			}
			y[i] = v + 0.03*math.Sin(float64(7*i+r))
		}
		ds.Y[id] = y
	}
	return p, ds
}

// TestBuildSurfacesAllocs bounds the allocations of fitting all six
// responses of a CCF k=4 build. One factorization of the design serves
// every response; factoring it once per response cost ≈675.
func TestBuildSurfacesAllocs(t *testing.T) {
	p, ds := surfacesDataset(t)
	model := rsm.FullQuadratic(len(p.Factors))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.BuildSurfaces(ds, model); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("BuildSurfaces allocates %.0f times per call, want ≤ 200", allocs)
	}
}

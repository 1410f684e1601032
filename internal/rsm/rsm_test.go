package rsm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/doe"
)

func TestTermBasics(t *testing.T) {
	tm := Term{Powers: []int{2, 1, 0}}
	if tm.Degree() != 3 {
		t.Fatalf("degree = %d", tm.Degree())
	}
	if got := tm.Eval([]float64{2, 3, 5}); got != 12 {
		t.Fatalf("eval = %v, want 12", got)
	}
	if got := (Term{Powers: []int{0, 0}}).Label(nil); got != "1" {
		t.Fatalf("intercept label = %q", got)
	}
	if got := (Term{Powers: []int{1, 2}}).Label([]string{"a", "b"}); got != "a·b²" {
		t.Fatalf("label = %q", got)
	}
	if got := (Term{Powers: []int{3}}).Label(nil); got != "x1^3" {
		t.Fatalf("cubic label = %q", got)
	}
}

func TestModelConstructors(t *testing.T) {
	if got := Linear(3).P(); got != 4 {
		t.Fatalf("linear terms = %d, want 4", got)
	}
	if got := LinearWithInteractions(3).P(); got != 7 {
		t.Fatalf("interaction terms = %d, want 7", got)
	}
	// Full quadratic in k: 1 + k + k + k(k−1)/2.
	for k := 2; k <= 6; k++ {
		want := 1 + 2*k + k*(k-1)/2
		if got := FullQuadratic(k).P(); got != want {
			t.Fatalf("quadratic k=%d terms = %d, want %d", k, got, want)
		}
	}
	for _, m := range []Model{Linear(2), LinearWithInteractions(4), FullQuadratic(3)} {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestModelValidateCatchesErrors(t *testing.T) {
	if err := (Model{K: 0}).Validate(); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if err := (Model{K: 2, Terms: []Term{}}).Validate(); err == nil {
		t.Fatal("empty model must be rejected")
	}
	if err := (Model{K: 2, Terms: []Term{{Powers: []int{1}}}}).Validate(); err == nil {
		t.Fatal("wrong power length must be rejected")
	}
	bad := Model{K: 1, Terms: []Term{{Powers: []int{1}}, {Powers: []int{1}}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate terms must be rejected")
	}
	if err := (Model{K: 1, Terms: []Term{{Powers: []int{-1}}}}).Validate(); err == nil {
		t.Fatal("negative power must be rejected")
	}
}

func TestModelDrop(t *testing.T) {
	m := Linear(2) // 1, x1, x2
	d := m.Drop(1)
	if d.P() != 2 {
		t.Fatalf("dropped model has %d terms", d.P())
	}
	if m.P() != 3 {
		t.Fatal("Drop must not mutate the original")
	}
}

// trueQuad is a known quadratic used as ground truth in fit tests:
// y = 3 + 2x1 − x2 + 0.5x1² + 1.5x2² − 0.8x1x2.
func trueQuad(x []float64) float64 {
	return 3 + 2*x[0] - x[1] + 0.5*x[0]*x[0] + 1.5*x[1]*x[1] - 0.8*x[0]*x[1]
}

func ccdRuns(t *testing.T, k int) [][]float64 {
	t.Helper()
	d, err := doe.CentralComposite(k, doe.CCC, 3)
	if err != nil {
		t.Fatal(err)
	}
	return d.Runs
}

func TestFitRecoversExactQuadratic(t *testing.T) {
	runs := ccdRuns(t, 2)
	y := make([]float64, len(runs))
	for i, r := range runs {
		y[i] = trueQuad(r)
	}
	fit, err := FitModel(FullQuadratic(2), runs, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 1-1e-12 {
		t.Fatalf("R² = %v, want 1 for an exact quadratic", fit.R2)
	}
	// Spot-check prediction at a point not in the design.
	x := []float64{0.3, -0.7}
	if got := fit.Predict(x); math.Abs(got-trueQuad(x)) > 1e-9 {
		t.Fatalf("prediction %v, want %v", got, trueQuad(x))
	}
}

func TestFitWithNoiseDiagnostics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	runs := ccdRuns(t, 2)
	y := make([]float64, len(runs))
	for i, r := range runs {
		y[i] = trueQuad(r) + 0.05*rng.NormFloat64()
	}
	fit, err := FitModel(FullQuadratic(2), runs, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R² = %v with tiny noise", fit.R2)
	}
	if fit.AdjR2 > fit.R2 {
		t.Fatal("adjusted R² must not exceed R²")
	}
	if fit.RMSE <= 0 || fit.RMSE > 0.2 {
		t.Fatalf("RMSE = %v, want ≈0.05", fit.RMSE)
	}
	if fit.PRESS <= fit.ResidualSS {
		t.Fatal("PRESS must exceed the residual SS")
	}
	if fit.R2Pred >= fit.R2 {
		t.Fatal("R²-pred must be below R²")
	}
	// Leverages are in (0, 1] and sum to p.
	var hsum float64
	for _, h := range fit.Leverage {
		if h <= 0 || h > 1+1e-9 {
			t.Fatalf("leverage %v outside (0,1]", h)
		}
		hsum += h
	}
	if math.Abs(hsum-float64(fit.Model.P())) > 1e-6 {
		t.Fatalf("Σh = %v, want p = %d", hsum, fit.Model.P())
	}
}

func TestFitValidation(t *testing.T) {
	runs := [][]float64{{0, 0}, {1, 1}}
	if _, err := FitModel(FullQuadratic(2), runs, []float64{1, 2}); err == nil {
		t.Fatal("underdetermined fit must error")
	}
	if _, err := FitModel(Linear(2), runs, []float64{1}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := FitModel(Linear(2), [][]float64{{0}, {1}, {0.5}}, []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong run width must error")
	}
	// Aliased design: duplicate runs cannot identify a quadratic.
	dup := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	if _, err := FitModel(FullQuadratic(2), dup, []float64{1, 1, 1, 1, 1, 1}); err == nil {
		t.Fatal("aliased design must error")
	}
}

func TestSignificanceDetectsRealAndNullTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// y depends on x1 only; x2 is inert.
	d, err := doe.FullFactorial(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = 1 + 5*r[0] + 0.01*rng.NormFloat64()
	}
	fit, err := FitModel(Linear(2), d.Runs, y)
	if err != nil {
		t.Fatal(err)
	}
	ps := fit.PValues()
	// Term order: 1, x1, x2.
	if ps[1] > 1e-6 {
		t.Fatalf("real effect p = %v, want ≈0", ps[1])
	}
	if ps[2] < 0.01 {
		t.Fatalf("null effect p = %v, want large", ps[2])
	}
}

func TestANOVATable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	runs := ccdRuns(t, 2)
	y := make([]float64, len(runs))
	for i, r := range runs {
		y[i] = trueQuad(r) + 0.1*rng.NormFloat64()
	}
	fit, err := FitModel(FullQuadratic(2), runs, y)
	if err != nil {
		t.Fatal(err)
	}
	rows := fit.ANOVA()
	if len(rows) != 3 {
		t.Fatalf("ANOVA rows = %d", len(rows))
	}
	reg, res, tot := rows[0], rows[1], rows[2]
	if math.Abs(reg.SS+res.SS-tot.SS) > 1e-9*tot.SS {
		t.Fatal("SS decomposition broken")
	}
	if reg.DoF+res.DoF != tot.DoF {
		t.Fatal("DoF decomposition broken")
	}
	if reg.F <= 0 || reg.P > 0.001 {
		t.Fatalf("strong regression must be significant: F=%v p=%v", reg.F, reg.P)
	}
	term := fit.TermANOVA()
	if len(term) != fit.Model.P()-1 {
		t.Fatalf("term rows = %d, want %d", len(term), fit.Model.P()-1)
	}
}

func TestStepwiseRemovesInertTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, err := doe.CentralComposite(3, doe.CCC, 4)
	if err != nil {
		t.Fatal(err)
	}
	// True model uses x1, x3 and x1² only.
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = 2 + 3*r[0] - 2*r[2] + 1.5*r[0]*r[0] + 0.02*rng.NormFloat64()
	}
	fit, err := Stepwise(FullQuadratic(3), d.Runs, y, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Model.P() >= FullQuadratic(3).P() {
		t.Fatal("stepwise removed nothing")
	}
	// The retained model must keep predicting well.
	x := []float64{0.5, -0.5, 0.2}
	want := 2 + 3*x[0] - 2*x[2] + 1.5*x[0]*x[0]
	if got := fit.Predict(x); math.Abs(got-want) > 0.1 {
		t.Fatalf("reduced model predicts %v, want %v", got, want)
	}
	if _, err := Stepwise(FullQuadratic(2), d.Runs, y, 1.5); err == nil {
		t.Fatal("bad alpha must error")
	}
}

func TestPredictCI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	runs := ccdRuns(t, 2)
	y := make([]float64, len(runs))
	for i, r := range runs {
		y[i] = trueQuad(r) + 0.1*rng.NormFloat64()
	}
	fit, err := FitModel(FullQuadratic(2), runs, y)
	if err != nil {
		t.Fatal(err)
	}
	pred, lo, hi := fit.PredictCI([]float64{0.2, 0.2}, 0.95)
	if !(lo < pred && pred < hi) {
		t.Fatalf("CI ordering broken: %v %v %v", lo, pred, hi)
	}
	// Wider interval at the design edge than at the centre.
	_, lo0, hi0 := fit.PredictCI([]float64{0, 0}, 0.95)
	_, loE, hiE := fit.PredictCI([]float64{1.4, 1.4}, 0.95)
	if (hiE - loE) <= (hi0 - lo0) {
		t.Fatal("extrapolation must widen the interval")
	}
}

func TestCanonicalAnalysisKnownSurface(t *testing.T) {
	// ŷ = 10 − (x1−0.2)² − 2(x2+0.3)² has a maximum at (0.2, −0.3).
	truth := func(x []float64) float64 {
		return 10 - (x[0]-0.2)*(x[0]-0.2) - 2*(x[1]+0.3)*(x[1]+0.3)
	}
	runs := ccdRuns(t, 2)
	y := make([]float64, len(runs))
	for i, r := range runs {
		y[i] = truth(r)
	}
	fit, err := FitModel(FullQuadratic(2), runs, y)
	if err != nil {
		t.Fatal(err)
	}
	can, err := fit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if can.Kind != Maximum {
		t.Fatalf("kind = %v, want maximum", can.Kind)
	}
	if math.Abs(can.Stationary[0]-0.2) > 1e-6 || math.Abs(can.Stationary[1]+0.3) > 1e-6 {
		t.Fatalf("stationary point = %v, want (0.2, −0.3)", can.Stationary)
	}
	if math.Abs(can.Value-10) > 1e-6 {
		t.Fatalf("stationary value = %v, want 10", can.Value)
	}
	if !can.InRegion {
		t.Fatal("stationary point is inside the cube")
	}
	if can.Eigen[0] > can.Eigen[1] {
		t.Fatal("eigenvalues must be ascending")
	}
	if can.Kind.String() != "maximum" {
		t.Fatal("kind string wrong")
	}
}

func TestCanonicalSaddleAndMinimum(t *testing.T) {
	runs := ccdRuns(t, 2)
	fitFor := func(truth func([]float64) float64) *Fit {
		y := make([]float64, len(runs))
		for i, r := range runs {
			y[i] = truth(r)
		}
		fit, err := FitModel(FullQuadratic(2), runs, y)
		if err != nil {
			t.Fatal(err)
		}
		return fit
	}
	saddle, err := fitFor(func(x []float64) float64 { return x[0]*x[0] - x[1]*x[1] + 0.1*x[0] }).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if saddle.Kind != Saddle {
		t.Fatalf("kind = %v, want saddle", saddle.Kind)
	}
	minim, err := fitFor(func(x []float64) float64 { return (x[0]+3)*(x[0]+3) + x[1]*x[1] }).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if minim.Kind != Minimum {
		t.Fatalf("kind = %v, want minimum", minim.Kind)
	}
	if minim.InRegion {
		t.Fatal("stationary point (−3, 0) is outside the cube")
	}
}

func TestCanonicalRequiresQuadratic(t *testing.T) {
	d, _ := doe.FullFactorial(2, 3)
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = 1 + r[0]
	}
	fit, err := FitModel(Linear(2), d.Runs, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fit.Canonical(); err == nil {
		t.Fatal("canonical analysis of a linear model must error")
	}
}

func TestSteepestAscentPath(t *testing.T) {
	d, _ := doe.FullFactorial(2, 3)
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = 1 + 3*r[0] + 4*r[1]
	}
	fit, err := FitModel(Linear(2), d.Runs, y)
	if err != nil {
		t.Fatal(err)
	}
	path, err := fit.SteepestAscentPath(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Fatalf("path length %d", len(path))
	}
	// Direction must be (3,4)/5.
	if math.Abs(path[0][0]-0.3) > 1e-9 || math.Abs(path[0][1]-0.4) > 1e-9 {
		t.Fatalf("first step = %v, want (0.3, 0.4)", path[0])
	}
	// Response must increase along the path.
	prev := fit.Predict([]float64{0, 0})
	for _, pt := range path {
		cur := fit.Predict(pt)
		if cur <= prev {
			t.Fatal("response must rise along steepest ascent")
		}
		prev = cur
	}
	if _, err := fit.SteepestAscentPath(0, 3); err == nil {
		t.Fatal("zero step must error")
	}
}

// Property: fitting a surface to data generated by any quadratic with
// bounded coefficients recovers predictions to near machine precision on a
// CCD (which identifies all quadratic terms).
func TestFitRecoveryProperty(t *testing.T) {
	runs := ccdRuns(t, 2)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := make([]float64, 6)
		for i := range c {
			c[i] = rng.NormFloat64() * 3
		}
		truth := func(x []float64) float64 {
			return c[0] + c[1]*x[0] + c[2]*x[1] + c[3]*x[0]*x[0] + c[4]*x[1]*x[1] + c[5]*x[0]*x[1]
		}
		y := make([]float64, len(runs))
		for i, r := range runs {
			y[i] = truth(r)
		}
		fit, err := FitModel(FullQuadratic(2), runs, y)
		if err != nil {
			return false
		}
		probe := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		return math.Abs(fit.Predict(probe)-truth(probe)) < 1e-8
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// wavyQuad is a quadratic plus a small smooth perturbation, so fits
// have genuinely nonzero residuals, PRESS and lack of fit.
func wavyQuad(x []float64) float64 {
	s := 2.0
	for j, v := range x {
		s += float64(j+1)*0.7*v - 0.4*v*v
		if j > 0 {
			s += 0.3 * v * x[j-1]
		}
	}
	return s + 0.05*math.Sin(7*s)
}

// TestPRESSMatchesLiteralLeaveOneOut verifies the hat-matrix PRESS shortcut
// against n literal refits: PRESS = Σ (y_i − ŷ_{(−i)}(x_i))².
func TestPRESSMatchesLiteralLeaveOneOut(t *testing.T) {
	d, err := doe.CentralComposite(2, doe.CCF, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = wavyQuad(r) + 0.05*rng.NormFloat64()
	}
	fit, err := FitModel(FullQuadratic(2), d.Runs, y)
	if err != nil {
		t.Fatal(err)
	}
	var press float64
	for i := range d.Runs {
		runs := make([][]float64, 0, d.N()-1)
		ys := make([]float64, 0, d.N()-1)
		for j := range d.Runs {
			if j == i {
				continue
			}
			runs = append(runs, d.Runs[j])
			ys = append(ys, y[j])
		}
		loo, err := FitModel(FullQuadratic(2), runs, ys)
		if err != nil {
			t.Fatal(err)
		}
		e := y[i] - loo.Predict(d.Runs[i])
		press += e * e
	}
	if math.Abs(fit.PRESS-press) > 1e-8*math.Max(1, press) {
		t.Fatalf("PRESS %v differs from literal leave-one-out %v", fit.PRESS, press)
	}
	if math.Abs(fit.R2Pred-(1-press/fit.TotalSS)) > 1e-8 {
		t.Fatalf("R²-pred %v inconsistent with PRESS", fit.R2Pred)
	}
}

package rsm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/doe"
	"repro/internal/la"
	"repro/internal/stats"
)

// refFitModel is the per-response fit as it stood before fitting was split
// into a shared Basis and a per-response solve: every call builds the
// model matrix, factors it, inverts XᵀX and recomputes the leverages. It is
// kept verbatim as the bit-identity reference.
func refFitModel(m Model, runs [][]float64, y []float64) (*Fit, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n, p := len(runs), m.P()
	if n != len(y) {
		return nil, fmt.Errorf("rsm: %d runs but %d responses", n, len(y))
	}
	if n < p {
		return nil, fmt.Errorf("rsm: %d runs cannot identify %d coefficients", n, p)
	}
	x := la.NewMatrix(n, p)
	for i, r := range runs {
		if len(r) != m.K {
			return nil, fmt.Errorf("rsm: run %d has %d factors, model wants %d", i, len(r), m.K)
		}
		x.SetRow(i, m.Row(r))
	}
	qr, err := la.FactorQR(x)
	if err != nil {
		return nil, err
	}
	coef, err := qr.SolveLS(y)
	if err != nil {
		return nil, fmt.Errorf("rsm: design cannot identify the model (aliased or deficient): %w", err)
	}
	xtxInv, err := qr.XtXInverse()
	if err != nil {
		return nil, err
	}

	f := &Fit{Model: m, Coef: coef, N: n, xtxInv: xtxInv}
	f.Residuals = make([]float64, n)
	mean := stats.Mean(y)
	for i := range y {
		pred := dot(x.Row(i), coef)
		e := y[i] - pred
		f.Residuals[i] = e
		f.ResidualSS += e * e
		d := y[i] - mean
		f.TotalSS += d * d
	}
	f.RegressionSS = f.TotalSS - f.ResidualSS
	if f.TotalSS > 0 {
		f.R2 = 1 - f.ResidualSS/f.TotalSS
	} else {
		f.R2 = 1
	}
	dofResid := n - p
	if dofResid > 0 {
		f.Sigma2 = f.ResidualSS / float64(dofResid)
		f.RMSE = math.Sqrt(f.Sigma2)
		if f.TotalSS > 0 {
			f.AdjR2 = 1 - (f.ResidualSS/float64(dofResid))/(f.TotalSS/float64(n-1))
		} else {
			f.AdjR2 = 1
		}
	} else {
		f.AdjR2 = f.R2
	}
	f.Leverage = make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		h := quadFormMat(f.xtxInv, row)
		f.Leverage[i] = h
		denom := 1 - h
		if denom < 1e-12 {
			denom = 1e-12
		}
		r := f.Residuals[i] / denom
		f.PRESS += r * r
	}
	if f.TotalSS > 0 {
		f.R2Pred = 1 - f.PRESS/f.TotalSS
	} else {
		f.R2Pred = 1
	}
	f.CoefSE = make([]float64, p)
	for j := 0; j < p; j++ {
		f.CoefSE[j] = math.Sqrt(f.Sigma2 * f.xtxInv.At(j, j))
	}
	return f, nil
}

// fitBits flattens every exported numeric field of a fit into bit
// patterns, in field order, with slice lengths as separators. The Model
// field is compared structurally by sameFit.
func fitBits(t *testing.T, f *Fit) []uint64 {
	t.Helper()
	v := reflect.ValueOf(f).Elem()
	var out []uint64
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() || sf.Name == "Model" {
			continue
		}
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Float64:
			out = append(out, math.Float64bits(fv.Float()))
		case reflect.Int:
			out = append(out, uint64(fv.Int()))
		case reflect.Slice:
			out = append(out, uint64(fv.Len()))
			for j := 0; j < fv.Len(); j++ {
				out = append(out, math.Float64bits(fv.Index(j).Float()))
			}
		default:
			t.Fatalf("fitBits: unhandled field %s of kind %s", sf.Name, fv.Kind())
		}
	}
	return out
}

// sameFit fails unless got and want agree bit for bit in every exported
// field and in PredictCI at the probe points.
func sameFit(t *testing.T, label string, got, want *Fit, probes [][]float64) {
	t.Helper()
	if !reflect.DeepEqual(got.Model, want.Model) {
		t.Fatalf("%s: models differ", label)
	}
	if g, w := fitBits(t, got), fitBits(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: fits differ bitwise:\n got %+v\nwant %+v", label, got, want)
	}
	for _, x := range probes {
		gp, glo, ghi := got.PredictCI(x, 0.95)
		wp, wlo, whi := want.PredictCI(x, 0.95)
		for _, pair := range [][2]float64{{gp, wp}, {glo, wlo}, {ghi, whi}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("%s: PredictCI at %v: %v vs %v", label, x, pair[0], pair[1])
			}
		}
	}
}

// randomResponses returns six responses observed at runs: five random
// quadratics with noise on different scales, and one constant response
// (TotalSS = 0).
func randomResponses(runs [][]float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ys := make([][]float64, 6)
	for r := range ys {
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		k := len(runs[0])
		lin := make([]float64, k)
		quad := make([]float64, k)
		for j := range lin {
			lin[j] = rng.NormFloat64()
			quad[j] = rng.NormFloat64()
		}
		ys[r] = make([]float64, len(runs))
		for i, x := range runs {
			if r == len(ys)-1 {
				ys[r][i] = 2.5
				continue
			}
			v := rng.NormFloat64()
			for j, xj := range x {
				v += lin[j]*xj + quad[j]*xj*xj
				if j > 0 {
					v += 0.3 * xj * x[j-1]
				}
			}
			ys[r][i] = scale * (v + 0.1*math.Sin(5*v) + 0.05*rng.NormFloat64())
		}
	}
	return ys
}

// TestBasisFitMatchesFitModelReference pins the shared-basis fit to the
// per-response reference: one Basis fitted to six responses, and FitModel
// for each, equal refFitModel bit for bit on classical, optimal, space-
// filling and saturated designs, and every error keeps its text.
func TestBasisFitMatchesFitModelReference(t *testing.T) {
	type tc struct {
		name string
		m    Model
		runs [][]float64
	}
	var cases []tc
	for k := 2; k <= 5; k++ {
		d, err := doe.CentralComposite(k, doe.CCF, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("ccf%d", k), FullQuadratic(k), d.Runs})
	}
	for _, k := range []int{3, 4} {
		d, err := doe.BoxBehnken(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("bbd%d", k), FullQuadratic(k), d.Runs})
	}
	cands, err := doe.CandidateLattice(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	q3 := FullQuadratic(3)
	dopt, err := doe.DOptimal(cands, q3.P()+4, q3.Row, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	centre := &doe.Design{Runs: [][]float64{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}}
	if dopt, err = dopt.Append(centre); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"dopt3+centre", q3, dopt.Runs})
	lhs, err := doe.LatinHypercube(4, 30, 11, 200)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"lhs4", FullQuadratic(4), lhs.Runs})
	sat, err := doe.DOptimal(cands, q3.P(), q3.Row, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"saturated3", q3, sat.Runs})

	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			probes := [][]float64{make([]float64, c.m.K), c.runs[0], c.runs[len(c.runs)-1]}
			off := make([]float64, c.m.K)
			for j := range off {
				off[j] = 0.37 - 0.21*float64(j)
			}
			probes = append(probes, off)
			b, err := NewBasis(c.m, c.runs)
			if err != nil {
				t.Fatal(err)
			}
			for r, y := range randomResponses(c.runs, int64(100+ci)) {
				want, err := refFitModel(c.m, c.runs, y)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.Fit(y)
				if err != nil {
					t.Fatal(err)
				}
				sameFit(t, fmt.Sprintf("basis response %d", r), got, want, probes)
				one, err := FitModel(c.m, c.runs, y)
				if err != nil {
					t.Fatal(err)
				}
				sameFit(t, fmt.Sprintf("FitModel response %d", r), one, want, probes)
			}
		})
	}

	t.Run("errors", func(t *testing.T) {
		q2 := FullQuadratic(2)
		// A two-level factorial with replicates aliases the pure quadratics
		// with the intercept: rank deficient although n > p.
		deficient := [][]float64{{-1, -1}, {1, -1}, {-1, 1}, {1, 1}, {-1, -1}, {1, 1}, {1, -1}}
		y7 := []float64{1, 2, 3, 4, 5, 6, 7}
		for _, e := range []struct {
			name string
			m    Model
			runs [][]float64
			y    []float64
		}{
			{"deficient", q2, deficient, y7},
			{"too-few-runs", q2, deficient[:4], y7[:4]},
			{"run-width", Linear(2), [][]float64{{0, 0}, {1}, {0, 1}}, y7[:3]},
			{"run-count", q2, deficient, y7[:6]},
			{"bad-model", Model{K: 0}, deficient, y7},
			{"count-before-width", q2, [][]float64{{0}}, y7[:2]},
		} {
			_, werr := refFitModel(e.m, e.runs, e.y)
			if werr == nil {
				t.Fatalf("%s: reference accepted the fit", e.name)
			}
			_, gerr := FitModel(e.m, e.runs, e.y)
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s: FitModel error %v, reference %v", e.name, gerr, werr)
			}
		}
		_, werr := refFitModel(q2, deficient, y7)
		if _, err := NewBasis(q2, deficient); err == nil || err.Error() != werr.Error() {
			t.Fatalf("NewBasis error %v, reference %v", err, werr)
		}
		b, err := NewBasis(Linear(2), deficient)
		if err != nil {
			t.Fatal(err)
		}
		_, werr = refFitModel(Linear(2), deficient, y7[:6])
		if _, err := b.Fit(y7[:6]); err == nil || err.Error() != werr.Error() {
			t.Fatalf("Basis.Fit error %v, reference %v", err, werr)
		}
	})
}

// TestBasisFitRejectsNonFinite: a NaN or infinite observation in any run
// fails the fit instead of yielding NaN coefficients, and the basis still
// fits a finite response afterwards.
func TestBasisFitRejectsNonFinite(t *testing.T) {
	d, err := doe.CentralComposite(2, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(FullQuadratic(2), d.Runs)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = wavyQuad(r)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, d.N() - 1} {
			yb := append([]float64(nil), y...)
			yb[at] = bad
			if f, err := b.Fit(yb); err == nil || !strings.Contains(err.Error(), "non-finite") {
				t.Fatalf("%v at run %d: fit %v, error %v; want a non-finite rejection", bad, at, f, err)
			}
			if _, err := FitModel(FullQuadratic(2), d.Runs, yb); err == nil {
				t.Fatalf("FitModel accepted %v at run %d", bad, at)
			}
		}
	}
	if _, err := b.Fit(y); err != nil {
		t.Fatalf("finite response after rejections: %v", err)
	}
}

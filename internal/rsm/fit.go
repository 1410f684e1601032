package rsm

import (
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/stats"
)

// Fit is a least-squares-fitted response surface with its diagnostics.
type Fit struct {
	Model Model
	Coef  []float64 // one coefficient per model term
	N     int       // number of runs fitted

	// Sums of squares.
	TotalSS      float64 // Σ(y−ȳ)²
	ResidualSS   float64 // Σe²
	RegressionSS float64 // TotalSS − ResidualSS

	// Quality metrics.
	R2     float64 // coefficient of determination
	AdjR2  float64 // adjusted for model size
	RMSE   float64 // √(ResidualSS/(n−p))
	PRESS  float64 // prediction SS (leave-one-out)
	R2Pred float64 // 1 − PRESS/TotalSS

	// Inference.
	Sigma2 float64   // residual mean square
	CoefSE []float64 // standard error per coefficient

	Residuals []float64
	Leverage  []float64 // hat-matrix diagonal

	xtxInv *la.Matrix
}

// FitModel fits the model to the coded design runs and observed responses
// y by Householder QR least squares. It is one Basis and one Basis.Fit:
// callers fitting several responses on the same runs should build the
// Basis once instead.
func FitModel(m Model, runs [][]float64, y []float64) (*Fit, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(runs) != len(y) {
		return nil, fmt.Errorf("rsm: %d runs but %d responses", len(runs), len(y))
	}
	b, err := newBasis(m, runs)
	if err != nil {
		return nil, err
	}
	return b.Fit(y)
}

// Basis is the response-independent half of a least-squares fit: the model
// matrix X of one design, its Householder QR, (XᵀX)⁻¹ and the leverages
// hᵢᵢ. Every response measured on the design shares it, so the design is
// factored once and each response costs one QR solve plus O(n·p)
// diagnostics. A Basis is read-only once built; the fits it returns share
// its (XᵀX)⁻¹, which they only read.
type Basis struct {
	model    Model
	rows     [][]float64 // views of X's rows
	qr       *la.QR
	xtxInv   *la.Matrix
	leverage []float64
}

// NewBasis factors the model matrix of the coded design runs. It fails
// when the runs cannot identify the model: fewer runs than coefficients, a
// run of the wrong width, or an aliased or rank-deficient design.
func NewBasis(m Model, runs [][]float64) (*Basis, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return newBasis(m, runs)
}

// newBasis is NewBasis for a model already validated.
func newBasis(m Model, runs [][]float64) (*Basis, error) {
	n, p := len(runs), m.P()
	if n < p {
		return nil, fmt.Errorf("rsm: %d runs cannot identify %d coefficients", n, p)
	}
	x := la.NewMatrix(n, p)
	rows := make([][]float64, n)
	for i, r := range runs {
		if len(r) != m.K {
			return nil, fmt.Errorf("rsm: run %d has %d factors, model wants %d", i, len(r), m.K)
		}
		rows[i] = m.RowInto(r, x.RowView(i))
	}
	qr, err := la.FactorQR(x)
	if err != nil {
		return nil, err
	}
	if !qr.FullRank() {
		return nil, fmt.Errorf("rsm: design cannot identify the model (aliased or deficient): %w", la.ErrSingular)
	}
	xtxInv, err := qr.XtXInverse()
	if err != nil {
		return nil, err
	}
	b := &Basis{model: m, rows: rows, qr: qr, xtxInv: xtxInv, leverage: make([]float64, n)}
	for i, row := range rows {
		b.leverage[i] = quadFormMat(xtxInv, row)
	}
	return b, nil
}

// Fit fits one response y, observed at the basis's runs, and computes its
// diagnostics: residuals, sums of squares, R², adjusted R², σ², RMSE,
// coefficient standard errors, leverage and PRESS. A NaN or infinite
// observation is rejected before it can poison the solve.
func (b *Basis) Fit(y []float64) (*Fit, error) {
	if len(y) != len(b.rows) {
		return nil, fmt.Errorf("rsm: %d runs but %d responses", len(b.rows), len(y))
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("rsm: non-finite response %v at run %d", v, i)
		}
	}
	coef, err := b.qr.SolveLS(y)
	if err != nil {
		return nil, err
	}
	n, p := len(y), b.model.P()
	f := &Fit{Model: b.model, Coef: coef, N: n, xtxInv: b.xtxInv}
	// Residuals and sums of squares.
	f.Residuals = make([]float64, n)
	mean := stats.Mean(y)
	for i, row := range b.rows {
		e := y[i] - dot(row, coef)
		f.Residuals[i] = e
		f.ResidualSS += e * e
		d := y[i] - mean
		f.TotalSS += d * d
	}
	f.RegressionSS = f.TotalSS - f.ResidualSS
	if f.TotalSS > 0 {
		f.R2 = 1 - f.ResidualSS/f.TotalSS
	} else {
		f.R2 = 1 // constant response fitted exactly
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
	// Leverage (shared by every response of the design) and PRESS.
	f.Leverage = append([]float64(nil), b.leverage...)
	for i, h := range f.Leverage {
		denom := 1 - h
		if denom < 1e-12 {
			denom = 1e-12 // saturated point: its PRESS contribution explodes, cap it
		}
		r := f.Residuals[i] / denom
		f.PRESS += r * r
	}
	if f.TotalSS > 0 {
		f.R2Pred = 1 - f.PRESS/f.TotalSS
	} else {
		f.R2Pred = 1
	}
	// Coefficient standard errors.
	f.CoefSE = make([]float64, len(coef))
	for j := range f.CoefSE {
		f.CoefSE[j] = math.Sqrt(f.Sigma2 * f.xtxInv.At(j, j))
	}
	return f, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func quadFormMat(m *la.Matrix, x []float64) float64 {
	var s float64
	for i := range x {
		if x[i] == 0 {
			continue
		}
		var t float64
		for j := range x {
			t += m.At(i, j) * x[j]
		}
		s += x[i] * t
	}
	return s
}

// Predict evaluates the fitted surface at the coded point x.
func (f *Fit) Predict(x []float64) float64 {
	return dot(f.Model.Row(x), f.Coef)
}

// PredictBatch evaluates the surface at many points.
func (f *Fit) PredictBatch(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f.Predict(x)
	}
	return out
}

// PredictCI returns the prediction and its confidence interval for the
// mean response at x at the given confidence level (e.g. 0.95).
func (f *Fit) PredictCI(x []float64, level float64) (pred, lo, hi float64) {
	pred = f.Predict(x)
	dof := float64(f.N - f.Model.P())
	if dof <= 0 || level <= 0 || level >= 1 {
		return pred, math.NaN(), math.NaN()
	}
	row := f.Model.Row(x)
	se := math.Sqrt(f.Sigma2 * quadFormMat(f.xtxInv, row))
	t := stats.TQuantile(0.5+level/2, dof)
	return pred, pred - t*se, pred + t*se
}

// TStats returns the t statistic of each coefficient.
func (f *Fit) TStats() []float64 {
	out := make([]float64, len(f.Coef))
	for i, c := range f.Coef {
		if f.CoefSE[i] == 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = c / f.CoefSE[i]
	}
	return out
}

// PValues returns the two-sided p-value of each coefficient.
func (f *Fit) PValues() []float64 {
	dof := float64(f.N - f.Model.P())
	ts := f.TStats()
	out := make([]float64, len(ts))
	for i, t := range ts {
		if dof <= 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = 2 * (1 - stats.TCDF(math.Abs(t), dof))
	}
	return out
}

// ANOVARow is one line of the regression ANOVA table.
type ANOVARow struct {
	Source string
	DoF    int
	SS     float64
	MS     float64
	F      float64
	P      float64
}

// ANOVA returns the overall regression ANOVA table (regression, residual,
// total).
func (f *Fit) ANOVA() []ANOVARow {
	p := f.Model.P()
	dofReg := p - 1
	dofRes := f.N - p
	rows := make([]ANOVARow, 0, 3)
	reg := ANOVARow{Source: "regression", DoF: dofReg, SS: f.RegressionSS}
	res := ANOVARow{Source: "residual", DoF: dofRes, SS: f.ResidualSS}
	if dofReg > 0 {
		reg.MS = f.RegressionSS / float64(dofReg)
	}
	if dofRes > 0 {
		res.MS = f.ResidualSS / float64(dofRes)
		if res.MS > 0 && dofReg > 0 {
			reg.F = reg.MS / res.MS
			reg.P = stats.FPValue(reg.F, float64(dofReg), float64(dofRes))
		}
	}
	rows = append(rows, reg, res,
		ANOVARow{Source: "total", DoF: f.N - 1, SS: f.TotalSS})
	return rows
}

// TermANOVA returns a per-term breakdown: each non-intercept term's
// single-degree-of-freedom F test (squared t test) and p-value, sorted as
// in the model.
func (f *Fit) TermANOVA() []ANOVARow {
	ts := f.TStats()
	ps := f.PValues()
	dofRes := f.N - f.Model.P()
	rows := make([]ANOVARow, 0, len(f.Coef))
	for i, t := range f.Model.Terms {
		if t.Degree() == 0 {
			continue
		}
		fstat := ts[i] * ts[i]
		rows = append(rows, ANOVARow{
			Source: t.Label(nil),
			DoF:    1,
			SS:     fstat * f.Sigma2, // single-dof SS = F·MSE
			MS:     fstat * f.Sigma2,
			F:      fstat,
			P:      ps[i],
		})
	}
	_ = dofRes
	return rows
}

// Stepwise performs backward elimination starting from model m: repeatedly
// drop the least significant term (largest p-value above alphaOut), refit,
// and stop when every remaining term is significant or only the intercept
// remains. It returns the reduced fit.
func Stepwise(m Model, runs [][]float64, y []float64, alphaOut float64) (*Fit, error) {
	if alphaOut <= 0 || alphaOut >= 1 {
		return nil, fmt.Errorf("rsm: alphaOut %g must be in (0,1)", alphaOut)
	}
	cur := m
	for {
		fit, err := FitModel(cur, runs, y)
		if err != nil {
			return nil, err
		}
		ps := fit.PValues()
		worst, worstP := -1, alphaOut
		for i, t := range cur.Terms {
			if t.Degree() == 0 {
				continue // never drop the intercept
			}
			if math.IsNaN(ps[i]) {
				continue
			}
			if ps[i] > worstP {
				worst, worstP = i, ps[i]
			}
		}
		if worst < 0 || cur.P() <= 1 {
			return fit, nil
		}
		cur = cur.Drop(worst)
	}
}

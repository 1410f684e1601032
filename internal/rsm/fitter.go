package rsm

import (
	"fmt"
	"math"
)

// fitterRidge is the diagonal loading on the incrementally maintained
// normal equations. It exists only so the Cholesky factor is positive
// definite from the first appended row; with coded-unit model rows (entries
// O(1)) and any identifiable design it perturbs coefficients by ~1e-12
// relative — far inside the 1e-9 equivalence bound the adaptive loop
// requires, and irrelevant to Finalize, which refits from scratch.
const fitterRidge = 1e-12

// Fitter is an incrementally updatable least-squares fit of one or more
// responses observed on the same runs: the sequential (adaptive-build)
// counterpart of Basis. It maintains one Cholesky factorization
// L·Lᵀ = XᵀX + ridge·I under appended rows, plus one vector Xᵀy per
// response, so after each new simulated point every response's
// coefficients are one shared rank-one Cholesky update plus two triangular
// solves — O(p²) instead of the O(n·p²) batch refactorization.
//
// Snapshot returns the current incremental fit of every response with the
// diagnostics the adaptive stopping rule consumes (R², adjusted R², PRESS,
// lack-of-fit inputs). Finalize fits the accumulated rows through one
// Basis, so the final models of an adaptive build are bit-identical to
// batch fits of the same data — the equivalence the fixed-strategy
// regression tests pin down.
type Fitter struct {
	model Model
	p     int

	l    [][]float64 // lower-triangular Cholesky factor of XᵀX + ridge·I
	rows [][]float64 // expanded model rows, retained for diagnostics
	runs [][]float64 // coded runs, retained for Finalize and lack-of-fit

	xty [][]float64 // Xᵀy, one per response
	ys  [][]float64 // observed values, one column per response
}

// NewFitter returns an empty incremental fitter for the model and the
// given number of responses.
func NewFitter(m Model, responses int) (*Fitter, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if responses < 1 {
		return nil, fmt.Errorf("rsm: fitter needs ≥1 response, got %d", responses)
	}
	p := m.P()
	f := &Fitter{model: m, p: p, xty: make([][]float64, responses), ys: make([][]float64, responses)}
	for r := range f.xty {
		f.xty[r] = make([]float64, p)
	}
	f.l = make([][]float64, p)
	for i := range f.l {
		f.l[i] = make([]float64, i+1)
		f.l[i][i] = math.Sqrt(fitterRidge)
	}
	return f, nil
}

// Model returns the model being fitted.
func (f *Fitter) Model() Model { return f.model }

// N returns the number of appended observations.
func (f *Fitter) N() int { return len(f.runs) }

// Runs returns the appended coded runs (shared backing array; do not
// mutate).
func (f *Fitter) Runs() [][]float64 { return f.runs }

// Ys returns the appended values of response r (shared backing array; do
// not mutate).
func (f *Fitter) Ys(r int) []float64 { return f.ys[r] }

// Append adds one observation: a coded run and its value of every
// response, in response order. Cost is O(p²) plus O(p) per response.
func (f *Fitter) Append(run []float64, ys ...float64) error {
	cols := make([][]float64, len(ys))
	for r := range ys {
		cols[r] = ys[r : r+1]
	}
	return f.AppendRows([][]float64{run}, cols...)
}

// AppendRows appends a batch of observations; ys holds one column per
// response, in response order. The whole batch is checked, response by
// response, before the factor changes.
func (f *Fitter) AppendRows(runs [][]float64, ys ...[]float64) error {
	if len(ys) != len(f.ys) {
		return fmt.Errorf("rsm: fitter has %d responses, got %d", len(f.ys), len(ys))
	}
	for _, col := range ys {
		if len(runs) != len(col) {
			return fmt.Errorf("rsm: %d runs but %d responses", len(runs), len(col))
		}
	}
	for _, col := range ys {
		for i, run := range runs {
			if len(run) != f.model.K {
				return fmt.Errorf("rsm: run has %d factors, model wants %d", len(run), f.model.K)
			}
			if y := col[i]; math.IsNaN(y) || math.IsInf(y, 0) {
				return fmt.Errorf("rsm: non-finite response %v", y)
			}
		}
	}
	vals := make([]float64, len(ys))
	for i, run := range runs {
		for r, col := range ys {
			vals[r] = col[i]
		}
		f.add(run, vals)
	}
	return nil
}

// add appends one checked observation.
func (f *Fitter) add(run []float64, ys []float64) {
	row := f.model.Row(run)
	// Rank-one Cholesky update: L·Lᵀ ← L·Lᵀ + row·rowᵀ. The classical
	// Givens-style sweep mutates its work vector, so operate on a copy.
	w := append([]float64(nil), row...)
	for j := 0; j < f.p; j++ {
		ljj := f.l[j][j]
		r := math.Hypot(ljj, w[j])
		c, s := r/ljj, w[j]/ljj
		f.l[j][j] = r
		for i := j + 1; i < f.p; i++ {
			f.l[i][j] = (f.l[i][j] + s*w[i]) / c
			w[i] = c*w[i] - s*f.l[i][j]
		}
	}
	for r, y := range ys {
		xty := f.xty[r]
		for j := 0; j < f.p; j++ {
			xty[j] += row[j] * y
		}
		f.ys[r] = append(f.ys[r], y)
	}
	f.rows = append(f.rows, row)
	f.runs = append(f.runs, append([]float64(nil), run...))
}

// Coef solves the current normal equations of response r from the updated
// Cholesky factor in O(p²). An error is returned while the design cannot
// identify the model (n < p).
func (f *Fitter) Coef(r int) ([]float64, error) {
	if err := f.identified(); err != nil {
		return nil, err
	}
	return f.solve(r), nil
}

// solve solves L·Lᵀ·β = Xᵀy of response r.
func (f *Fitter) solve(r int) []float64 {
	// Forward substitution: L·z = Xᵀy.
	xty := f.xty[r]
	z := make([]float64, f.p)
	for i := 0; i < f.p; i++ {
		s := xty[i]
		for j := 0; j < i; j++ {
			s -= f.l[i][j] * z[j]
		}
		z[i] = s / f.l[i][i]
	}
	// Back substitution: Lᵀ·β = z.
	beta := make([]float64, f.p)
	for i := f.p - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < f.p; j++ {
			s -= f.l[j][i] * beta[j]
		}
		beta[i] = s / f.l[i][i]
	}
	return beta
}

// identified reports an error while the runs cannot identify the model
// (n < p).
func (f *Fitter) identified() error {
	if f.N() < f.p {
		return fmt.Errorf("rsm: %d runs cannot identify %d coefficients", f.N(), f.p)
	}
	return nil
}

// leverage returns xᵀ(XᵀX)⁻¹x = ‖L⁻¹x‖² via one forward substitution.
func (f *Fitter) leverage(row []float64) float64 {
	z := make([]float64, f.p)
	var h float64
	for i := 0; i < f.p; i++ {
		s := row[i]
		for j := 0; j < i; j++ {
			s -= f.l[i][j] * z[j]
		}
		z[i] = s / f.l[i][i]
		h += z[i] * z[i]
	}
	return h
}

// Snapshot returns the incremental fit of every response, in response
// order, as a *Fit carrying the diagnostics the sequential stopping rule
// needs: coefficients, residuals, R², adjusted R², RMSE, leverage, PRESS
// and R²-pred, plus the sums of squares LackOfFitTest consumes. The
// inference-only fields (CoefSE, confidence intervals) are left zero — use
// Finalize or FitModel when those matter. The leverages depend on the runs
// alone, so one O(n·p²) pass serves every response; each response's
// coefficient refit is O(p²) and its diagnostics O(n·p).
func (f *Fitter) Snapshot() ([]*Fit, error) {
	if err := f.identified(); err != nil {
		return nil, err
	}
	lev := make([]float64, len(f.rows))
	for i, row := range f.rows {
		lev[i] = f.leverage(row)
	}
	fits := make([]*Fit, len(f.ys))
	for r, ys := range f.ys {
		fits[r] = newFit(f.model, f.solve(r), f.rows, ys, lev)
	}
	return fits, nil
}

// Finalize refits the accumulated data of every response through one Basis
// and returns the fits in response order. Because it hands the Basis the
// very rows and values that were appended, each fit is bit-identical to a
// from-scratch FitModel of the same data — the adaptive build's final
// models carry no trace of the incremental updates.
func (f *Fitter) Finalize() ([]*Fit, error) {
	b, err := NewBasis(f.model, f.runs)
	if err != nil {
		return nil, err
	}
	fits := make([]*Fit, len(f.ys))
	for r, ys := range f.ys {
		if fits[r], err = b.Fit(ys); err != nil {
			return nil, err
		}
	}
	return fits, nil
}

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"repro/internal/doe"
	"repro/internal/rsm"
)

// SavedSurfaces is the serializable form of a fitted surface set: enough
// to reload the captured design space and keep exploring it without
// re-running a single simulation. It records the factor ranges (so coded
// and natural units stay interpretable), the polynomial basis, and the
// coefficients and headline diagnostics per response.
type SavedSurfaces struct {
	// Paper identity, for provenance in saved files.
	Toolkit string `json:"toolkit"`

	Factors []doe.Factor `json:"factors"`
	// Terms is the shared polynomial basis: one exponent vector per term.
	Terms [][]int `json:"terms"`
	// Coef holds the fitted coefficients per response, aligned with Terms.
	Coef map[ResponseID][]float64 `json:"coef"`
	// R2 and RMSE are the headline diagnostics captured at fit time.
	R2   map[ResponseID]float64 `json:"r2"`
	RMSE map[ResponseID]float64 `json:"rmse"`
	// PRESS and R2Pred are the leave-one-out cross-validation diagnostics
	// (prediction sum of squares and its scale-free form 1 − PRESS/TotalSS),
	// captured at fit time. Absent from files written by older releases.
	PRESS  map[ResponseID]float64 `json:"press,omitempty"`
	R2Pred map[ResponseID]float64 `json:"r2_pred,omitempty"`

	// Provenance of the build.
	DesignName string  `json:"design"`
	Runs       int     `json:"runs"`
	Horizon    float64 `json:"horizon_s"`

	// The raw designed experiment (coded runs and simulated responses),
	// kept so diagnostics — ANOVA, lack of fit, residual checks — can be
	// recomputed offline without re-running a single simulation.
	DesignRuns [][]float64              `json:"design_runs,omitempty"`
	DataY      map[ResponseID][]float64 `json:"data_y,omitempty"`
}

// Save converts fitted surfaces into their serializable form. To embed
// the raw experiment for offline diagnostics, use SaveWithData.
func (s *Surfaces) Save(designName string, runs int) *SavedSurfaces {
	out := &SavedSurfaces{
		Toolkit:    "ehdoe (DoE-based sensor-node design flow, DATE 2013 reproduction)",
		Factors:    append([]doe.Factor(nil), s.Problem.Factors...),
		Coef:       make(map[ResponseID][]float64, len(s.Fits)),
		R2:         make(map[ResponseID]float64, len(s.Fits)),
		RMSE:       make(map[ResponseID]float64, len(s.Fits)),
		PRESS:      make(map[ResponseID]float64, len(s.Fits)),
		R2Pred:     make(map[ResponseID]float64, len(s.Fits)),
		DesignName: designName,
		Runs:       runs,
		Horizon:    s.Problem.Horizon,
	}
	for _, t := range s.Model.Terms {
		out.Terms = append(out.Terms, append([]int(nil), t.Powers...))
	}
	for id, fit := range s.Fits {
		out.Coef[id] = append([]float64(nil), fit.Coef...)
		out.R2[id] = fit.R2
		out.RMSE[id] = fit.RMSE
		out.PRESS[id] = fit.PRESS
		out.R2Pred[id] = fit.R2Pred
	}
	return out
}

// SaveWithData is Save plus the raw designed experiment, enabling offline
// ANOVA and lack-of-fit via Refit.
func (s *Surfaces) SaveWithData(ds *Dataset) *SavedSurfaces {
	out := s.Save(ds.Design.Name, ds.Design.N())
	out.DesignRuns = make([][]float64, ds.Design.N())
	for i, r := range ds.Design.Runs {
		out.DesignRuns[i] = append([]float64(nil), r...)
	}
	out.DataY = make(map[ResponseID][]float64, len(ds.Y))
	for id, y := range ds.Y {
		out.DataY[id] = append([]float64(nil), y...)
	}
	return out
}

// HasData reports whether the file embeds the raw experiment.
func (ss *SavedSurfaces) HasData() bool {
	return len(ss.DesignRuns) > 0 && len(ss.DataY) > 0
}

// Refit rebuilds the live rsm.Fit of one response from the embedded data
// (for diagnostics that need more than coefficients: ANOVA, lack of fit,
// studentized residuals).
func (ss *SavedSurfaces) Refit(id ResponseID) (*rsm.Fit, error) {
	if !ss.HasData() {
		return nil, fmt.Errorf("core: saved surfaces carry no raw data (rebuild with SaveWithData)")
	}
	y, ok := ss.DataY[id]
	if !ok {
		return nil, fmt.Errorf("core: no data for response %q", id)
	}
	return rsm.FitModel(ss.Model(), ss.DesignRuns, y)
}

// MarshalJSON is provided by the standard library via struct tags; Encode
// renders the saved surfaces as indented JSON.
func (ss *SavedSurfaces) Encode() ([]byte, error) {
	return json.MarshalIndent(ss, "", "  ")
}

// DecodeSurfaces parses a saved-surfaces JSON document.
func DecodeSurfaces(data []byte) (*SavedSurfaces, error) {
	var ss SavedSurfaces
	if err := json.Unmarshal(data, &ss); err != nil {
		return nil, fmt.Errorf("core: decoding saved surfaces: %w", err)
	}
	if err := ss.validate(); err != nil {
		return nil, err
	}
	return &ss, nil
}

// maxTermPower bounds each exponent of a decoded basis. The fitters emit
// at most 2 (rsm.FullQuadratic); a cap keeps an uploaded model from
// turning one prediction into billions of multiplications.
const maxTermPower = 3

func (ss *SavedSurfaces) validate() error {
	if len(ss.Factors) == 0 {
		return fmt.Errorf("core: saved surfaces have no factors")
	}
	for _, f := range ss.Factors {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	if len(ss.Terms) == 0 {
		return fmt.Errorf("core: saved surfaces have no model terms")
	}
	k := len(ss.Factors)
	for i, t := range ss.Terms {
		if len(t) != k {
			return fmt.Errorf("core: term %d has %d powers, want %d", i, len(t), k)
		}
		for j, p := range t {
			if p < 0 || p > maxTermPower {
				return fmt.Errorf("core: term %d power %d of factor %d outside 0..%d", i, p, j, maxTermPower)
			}
		}
	}
	if len(ss.Coef) == 0 {
		return fmt.Errorf("core: saved surfaces have no coefficients")
	}
	for id, c := range ss.Coef {
		if len(c) != len(ss.Terms) {
			return fmt.Errorf("core: response %q has %d coefficients for %d terms", id, len(c), len(ss.Terms))
		}
	}
	return nil
}

// Model reconstructs the rsm.Model of the saved basis.
func (ss *SavedSurfaces) Model() rsm.Model {
	m := rsm.Model{K: len(ss.Factors)}
	for _, powers := range ss.Terms {
		m.Terms = append(m.Terms, rsm.Term{Powers: append([]int(nil), powers...)})
	}
	return m
}

// basis is Model for read-only evaluation: its terms share the exponent
// vectors of ss.Terms, so it costs one allocation instead of one per term.
// Saved surfaces are immutable once built, which makes the sharing safe.
func (ss *SavedSurfaces) basis() rsm.Model {
	m := rsm.Model{K: len(ss.Factors), Terms: make([]rsm.Term, len(ss.Terms))}
	for i, powers := range ss.Terms {
		m.Terms[i].Powers = powers
	}
	return m
}

// Responses lists the response ids present in the file, sorted by name.
func (ss *SavedSurfaces) Responses() []ResponseID {
	out := make([]ResponseID, 0, len(ss.Coef))
	for id := range ss.Coef {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// FactorIndex returns the position of the named factor, or −1.
func (ss *SavedSurfaces) FactorIndex(name string) int {
	return slices.IndexFunc(ss.Factors, func(f doe.Factor) bool { return f.Name == name })
}

// Predict evaluates a saved surface at a coded point.
func (ss *SavedSurfaces) Predict(id ResponseID, coded []float64) (float64, error) {
	coef, ok := ss.Coef[id]
	if !ok {
		return 0, fmt.Errorf("core: saved surfaces lack response %q", id)
	}
	if len(coded) != len(ss.Factors) {
		return 0, fmt.Errorf("core: point has %d coordinates, model wants %d", len(coded), len(ss.Factors))
	}
	row := ss.basis().Row(coded)
	var v float64
	for i, c := range coef {
		v += c * row[i]
	}
	return v, nil
}

// PredictNatural evaluates a saved surface at a point in natural units.
func (ss *SavedSurfaces) PredictNatural(id ResponseID, natural []float64) (float64, error) {
	coded, err := ss.EncodePoint(natural)
	if err != nil {
		return 0, err
	}
	return ss.Predict(id, coded)
}

// EncodePoint converts a point from natural units to coded units using the
// saved factor ranges.
func (ss *SavedSurfaces) EncodePoint(natural []float64) ([]float64, error) {
	if len(natural) != len(ss.Factors) {
		return nil, fmt.Errorf("core: point has %d coordinates, model wants %d", len(natural), len(ss.Factors))
	}
	coded := make([]float64, len(natural))
	for i, f := range ss.Factors {
		coded[i] = f.Encode(natural[i])
	}
	return coded, nil
}

// Predictor returns an evaluator of one response with the polynomial basis
// built once and a shared scratch row, so evaluating N points costs no
// per-point allocation — the serving hot path. The returned function is NOT
// safe for concurrent use (it owns the scratch); create one per goroutine.
func (ss *SavedSurfaces) Predictor(id ResponseID) (func(coded []float64) float64, error) {
	coef, ok := ss.Coef[id]
	if !ok {
		return nil, fmt.Errorf("core: saved surfaces lack response %q", id)
	}
	m := ss.basis()
	scratch := make([]float64, len(m.Terms))
	return func(coded []float64) float64 {
		row := m.RowInto(coded, scratch)
		var v float64
		for i, c := range coef {
			v += c * row[i]
		}
		return v
	}, nil
}

// PredictBatch evaluates one response at every point (coded units) with a
// single basis construction and zero per-point allocation beyond the output
// slice.
func (ss *SavedSurfaces) PredictBatch(id ResponseID, points [][]float64) ([]float64, error) {
	pred, err := ss.Predictor(id)
	if err != nil {
		return nil, err
	}
	k := len(ss.Factors)
	out := make([]float64, len(points))
	for i, x := range points {
		if len(x) != k {
			return nil, fmt.Errorf("core: point %d has %d coordinates, model wants %d", i, len(x), k)
		}
		out[i] = pred(x)
	}
	return out, nil
}

// Sweep samples one response over the full natural range of factor fi at
// n evenly spaced values, holding the other factors at base (natural
// units). It returns the factor values and the predictions there.
func (ss *SavedSurfaces) Sweep(id ResponseID, fi int, base []float64, n int) (xs, ys []float64, err error) {
	pred, err := ss.Predictor(id)
	if err != nil {
		return nil, nil, err
	}
	if fi < 0 || fi >= len(ss.Factors) {
		return nil, nil, fmt.Errorf("core: factor index %d outside 0..%d", fi, len(ss.Factors)-1)
	}
	if n < 2 {
		return nil, nil, fmt.Errorf("core: a sweep needs ≥2 points, got %d", n)
	}
	coded, err := ss.EncodePoint(base)
	if err != nil {
		return nil, nil, err
	}
	f := ss.Factors[fi]
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		x := f.Min + float64(i)/float64(n-1)*(f.Max-f.Min)
		coded[fi] = f.Encode(x)
		xs[i] = x
		ys[i] = pred(coded)
	}
	return xs, ys, nil
}

// Optimize maximizes (or minimizes) a response on its saved surface with
// the same multi-start search as Surfaces.Optimize, without the confirming
// simulation.
func (ss *SavedSurfaces) Optimize(id ResponseID, maximize bool, starts int, seed int64) (*SurfaceOptimum, error) {
	pred, err := ss.Predictor(id)
	if err != nil {
		return nil, err
	}
	return optimum(ss.Factors, pred, maximize, starts, seed)
}

// ErrModelMismatch marks saved surfaces a problem cannot validate: their
// factor count differs from the problem's, or they share no response.
var ErrModelMismatch = errors.New("model does not match the problem")

// Validate runs the validation loop of Surfaces.Validate for saved
// surfaces on problem p: n random points are simulated and every response
// both the model and p produce is scored, in name order.
func (ss *SavedSurfaces) Validate(ctx context.Context, p *Problem, n int, seed int64) (*ValidationReport, error) {
	if len(p.Factors) != len(ss.Factors) {
		return nil, fmt.Errorf("%w: model has %d factors, problem has %d", ErrModelMismatch, len(ss.Factors), len(p.Factors))
	}
	var checks []surfaceCheck
	for _, id := range ss.Responses() {
		if !slices.Contains(p.Responses, id) {
			continue
		}
		pred, err := ss.Predictor(id)
		if err != nil {
			return nil, err
		}
		checks = append(checks, surfaceCheck{id: id, predict: pred, r2: ss.R2[id]})
	}
	if len(checks) == 0 {
		return nil, fmt.Errorf("%w: model and problem share no responses", ErrModelMismatch)
	}
	return p.validate(ctx, checks, n, seed)
}

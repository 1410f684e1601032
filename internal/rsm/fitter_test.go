package rsm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/doe"
)

// wavyQuad is a quadratic plus a small smooth perturbation, so incremental
// fits have genuinely nonzero residuals, PRESS and lack of fit.
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

// equivalenceGrid returns the (design, model) pairs the incremental fitter
// must match the batch fitter on.
func equivalenceGrid(t *testing.T) []struct {
	name string
	m    Model
	runs [][]float64
} {
	t.Helper()
	ccf2, err := doe.CentralComposite(2, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	bbd3, err := doe.BoxBehnken(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ccc4, err := doe.CentralComposite(4, doe.CCC, 4)
	if err != nil {
		t.Fatal(err)
	}
	lhs3, err := doe.LatinHypercube(3, 25, 11, 200)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		m    Model
		runs [][]float64
	}{
		{"ccf2-quad", FullQuadratic(2), ccf2.Runs},
		{"bbd3-quad", FullQuadratic(3), bbd3.Runs},
		{"ccc4-quad", FullQuadratic(4), ccc4.Runs},
		{"lhs3-linint", LinearWithInteractions(3), lhs3.Runs},
	}
}

// TestFitterMatchesBatchAcrossGrid pins the tentpole equivalence bound:
// after every append beyond identifiability, the incremental coefficients
// and diagnostics agree with a from-scratch batch fit to ≤1e-9 (relative).
func TestFitterMatchesBatchAcrossGrid(t *testing.T) {
	const tol = 1e-9
	for _, tc := range equivalenceGrid(t) {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFitter(tc.m, 1)
			if err != nil {
				t.Fatal(err)
			}
			p := tc.m.P()
			compared := 0
			for n, r := range tc.runs {
				if err := f.Append(r, wavyQuad(r)); err != nil {
					t.Fatal(err)
				}
				if n+1 < p {
					if _, err := f.Coef(0); err == nil {
						t.Fatal("Coef must error before identifiability")
					}
					continue
				}
				batch, err := FitModel(tc.m, f.Runs(), f.Ys(0))
				if err != nil {
					// A rank-deficient prefix (e.g. a CCD's corners alias
					// the pure quadratics until the axials arrive) has no
					// batch fit to compare against.
					continue
				}
				snaps, err := f.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				snap := snaps[0]
				// Only well-posed prefixes are part of the equivalence
				// grid: at a (near-)saturated point the ridge-stabilized
				// incremental solve and the bare QR legitimately diverge.
				maxLev := 0.0
				for _, h := range batch.Leverage {
					maxLev = math.Max(maxLev, h)
				}
				if maxLev > 1-1e-6 {
					continue
				}
				for j := range batch.Coef {
					if d := math.Abs(snap.Coef[j] - batch.Coef[j]); d > tol*math.Max(1, math.Abs(batch.Coef[j])) {
						t.Fatalf("n=%d coef %d: incremental %v vs batch %v (Δ=%g)", n+1, j, snap.Coef[j], batch.Coef[j], d)
					}
				}
				compared++
				for _, pair := range [][2]float64{
					{snap.R2, batch.R2},
					{snap.AdjR2, batch.AdjR2},
					{snap.ResidualSS, batch.ResidualSS},
					{snap.TotalSS, batch.TotalSS},
					{snap.PRESS, batch.PRESS},
					{snap.R2Pred, batch.R2Pred},
				} {
					if d := math.Abs(pair[0] - pair[1]); d > 1e-7*math.Max(1, math.Abs(pair[1])) {
						t.Fatalf("n=%d diagnostic mismatch: %v vs %v", n+1, pair[0], pair[1])
					}
				}
			}
			if compared < 3 {
				t.Fatalf("equivalence grid too thin: only %d well-posed prefixes compared", compared)
			}
		})
	}
}

// TestFitterFinalizeBitIdentical pins the stronger guarantee the fixed-vs-
// adaptive regression relies on: Finalize routes through the batch FitModel,
// so its coefficients are bit-for-bit the batch fit's.
func TestFitterFinalizeBitIdentical(t *testing.T) {
	for _, tc := range equivalenceGrid(t) {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFitter(tc.m, 1)
			if err != nil {
				t.Fatal(err)
			}
			ys := make([]float64, len(tc.runs))
			for i, r := range tc.runs {
				ys[i] = wavyQuad(r)
				if err := f.Append(r, ys[i]); err != nil {
					t.Fatal(err)
				}
			}
			fins, err := f.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			fin := fins[0]
			batch, err := FitModel(tc.m, tc.runs, ys)
			if err != nil {
				t.Fatal(err)
			}
			for j := range batch.Coef {
				if math.Float64bits(fin.Coef[j]) != math.Float64bits(batch.Coef[j]) {
					t.Fatalf("coef %d not bit-identical: %x vs %x", j, math.Float64bits(fin.Coef[j]), math.Float64bits(batch.Coef[j]))
				}
			}
			for _, pair := range [][2]float64{
				{fin.R2, batch.R2}, {fin.AdjR2, batch.AdjR2}, {fin.PRESS, batch.PRESS},
				{fin.RMSE, batch.RMSE}, {fin.ResidualSS, batch.ResidualSS},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("diagnostic not bit-identical: %v vs %v", pair[0], pair[1])
				}
			}
		})
	}
}

// The snapshot must feed the lack-of-fit machinery exactly like a batch fit.
func TestFitterSnapshotLackOfFit(t *testing.T) {
	d, err := doe.CentralComposite(2, doe.CCF, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	f, err := NewFitter(FullQuadratic(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Runs {
		y := 1 + r[0] + 5*r[0]*r[0]*r[1]*r[1] + 0.01*rng.NormFloat64()
		if err := f.Append(r, y); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := snaps[0]
	lofInc, err := snap.LackOfFitTest(f.Runs(), f.Ys(0))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := FitModel(FullQuadratic(2), f.Runs(), f.Ys(0))
	if err != nil {
		t.Fatal(err)
	}
	lofBatch, err := batch.LackOfFitTest(f.Runs(), f.Ys(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lofInc.F-lofBatch.F) > 1e-6*math.Max(1, lofBatch.F) {
		t.Fatalf("lack-of-fit F differs: %v vs %v", lofInc.F, lofBatch.F)
	}
	if !lofInc.Significant(0.01) {
		t.Fatal("strong curvature must be flagged by the incremental fit too")
	}
}

func TestFitterValidation(t *testing.T) {
	if _, err := NewFitter(Model{K: 0}, 1); err == nil {
		t.Fatal("bad model must be rejected")
	}
	f, err := NewFitter(Linear(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]float64{1}, 0); err == nil {
		t.Fatal("wrong run width must be rejected")
	}
	if err := f.Append([]float64{0, 0}, math.NaN()); err == nil {
		t.Fatal("NaN response must be rejected")
	}
	if err := f.AppendRows([][]float64{{0, 0}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if _, err := f.Snapshot(); err == nil {
		t.Fatal("snapshot before identifiability must error")
	}
	if err := f.AppendRows([][]float64{{0, 0}, {1, 0}, {0, 1}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Coef(0); err != nil {
		t.Fatal(err)
	}
	if f.Model().K != 2 || f.N() != 3 {
		t.Fatal("accessors wrong")
	}
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

// TestSharedFitterMatchesSingleResponseFitters pins the adaptive build's
// shared fitter: one Fitter over six responses, fed round by round, yields
// snapshots and final fits bit-identical to six one-response fitters fed
// point by point, over several random designs.
func TestSharedFitterMatchesSingleResponseFitters(t *testing.T) {
	cands, err := doe.CandidateLattice(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := FullQuadratic(3)
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			runs := make([][]float64, 40)
			for i := range runs {
				runs[i] = cands.Runs[rng.Intn(cands.N())]
			}
			ys := randomResponses(runs, seed)
			shared, err := NewFitter(m, len(ys))
			if err != nil {
				t.Fatal(err)
			}
			singles := make([]*Fitter, len(ys))
			for r := range singles {
				if singles[r], err = NewFitter(m, 1); err != nil {
					t.Fatal(err)
				}
			}
			compared := 0
			for lo := 0; lo < len(runs); {
				hi := min(lo+1+rng.Intn(6), len(runs))
				cols := make([][]float64, len(ys))
				for r := range ys {
					cols[r] = ys[r][lo:hi]
				}
				if err := shared.AppendRows(runs[lo:hi], cols...); err != nil {
					t.Fatal(err)
				}
				for i := lo; i < hi; i++ {
					for r, f := range singles {
						if err := f.Append(runs[i], ys[r][i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				lo = hi
				got, gerr := shared.Snapshot()
				for r, f := range singles {
					want, werr := f.Snapshot()
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("n=%d: shared snapshot error %v, single %v", lo, gerr, werr)
					}
					if werr != nil {
						if gerr.Error() != werr.Error() {
							t.Fatalf("n=%d: error %q, want %q", lo, gerr, werr)
						}
						continue
					}
					sameFit(t, fmt.Sprintf("n=%d snapshot %d", lo, r), got[r], want[0], nil)
					compared++
				}
			}
			if compared == 0 {
				t.Fatal("no snapshot compared")
			}
			got, err := shared.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			probes := [][]float64{{0, 0, 0}, {0.3, -0.8, 0.5}}
			for r, f := range singles {
				want, err := f.Finalize()
				if err != nil {
					t.Fatal(err)
				}
				sameFit(t, fmt.Sprintf("finalize %d", r), got[r], want[0], probes)
				batch, err := FitModel(m, runs, ys[r])
				if err != nil {
					t.Fatal(err)
				}
				sameFit(t, fmt.Sprintf("finalize %d vs FitModel", r), got[r], batch, probes)
			}
		})
	}
}

// TestFitterAppendChecksEveryResponseFirst: a bad value in any response
// leaves the shared factor untouched.
func TestFitterAppendChecksEveryResponseFirst(t *testing.T) {
	f, err := NewFitter(Linear(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Append([]float64{0, 0}, 1, 2, math.Inf(1)); err == nil {
		t.Fatal("non-finite third response must be rejected")
	}
	if err := f.Append([]float64{0, 0}, 1, 2); err == nil {
		t.Fatal("missing response value must be rejected")
	}
	runs := [][]float64{{0, 0}, {1, 0}, {0, 1}}
	if err := f.AppendRows(runs, []float64{1, 2, 3}, []float64{1, 2, 3}, []float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("NaN in the last column must be rejected")
	}
	if f.N() != 0 || len(f.Ys(0)) != 0 {
		t.Fatalf("rejected appends changed the fitter: n=%d", f.N())
	}
	if _, err := NewFitter(Linear(2), 0); err == nil {
		t.Fatal("a fitter with no responses must be rejected")
	}
	if err := f.AppendRows(runs, []float64{1, 2, 3}, []float64{4, 5, 6}, []float64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if f.N() != 3 || f.Ys(2)[1] != 8 {
		t.Fatal("accessors wrong")
	}
}

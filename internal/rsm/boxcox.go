package rsm

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// BoxCox applies the Box–Cox power transform with parameter lambda:
//
//	y(λ) = (y^λ − 1)/λ   (λ ≠ 0)
//	y(0) = ln y
//
// Responses spanning decades (harvested power near vs off resonance) fit
// polynomials far better on a transformed scale; this is the standard RSM
// variance-stabilization tool.
func BoxCox(y, lambda float64) (float64, error) {
	if y <= 0 {
		return 0, fmt.Errorf("rsm: Box–Cox needs positive responses, got %g", y)
	}
	if lambda == 0 {
		return math.Log(y), nil
	}
	return (math.Pow(y, lambda) - 1) / lambda, nil
}

// BoxCoxInverse undoes the transform.
func BoxCoxInverse(z, lambda float64) float64 {
	if lambda == 0 {
		return math.Exp(z)
	}
	v := lambda*z + 1
	if v <= 0 {
		return 0 // outside the transform's image: clamp to the boundary
	}
	return math.Pow(v, 1/lambda)
}

// BoxCoxProfile selects the Box–Cox λ maximizing the profile
// log-likelihood of the model over a λ grid — the textbook procedure: for
// each candidate λ, transform the responses, fit the model, and score
//
//	L(λ) = −n/2·ln(SSE(λ)/n) + (λ−1)·Σ ln y
//
// It returns the best λ, its fit, and the profile (for diagnostics).
func BoxCoxProfile(m Model, runs [][]float64, y []float64, lambdas []float64) (bestLambda float64, bestFit *Fit, profile []float64, err error) {
	if len(lambdas) == 0 {
		lambdas = []float64{-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2}
	}
	var sumLog float64
	for _, v := range y {
		if v <= 0 {
			return 0, nil, nil, fmt.Errorf("rsm: Box–Cox needs positive responses, got %g", v)
		}
		sumLog += math.Log(v)
	}
	n := float64(len(y))
	best := math.Inf(-1)
	profile = make([]float64, len(lambdas))
	// Every λ refits the same runs: factor the design once. A design that
	// cannot identify the model fails every λ alike.
	basis, berr := NewBasis(m, runs)
	z := make([]float64, len(y))
	for li, lam := range lambdas {
		for i, v := range y {
			zi, err := BoxCox(v, lam)
			if err != nil {
				return 0, nil, nil, err
			}
			z[i] = zi
		}
		ferr := berr
		var fit *Fit
		if ferr == nil {
			fit, ferr = basis.Fit(z)
		}
		if ferr != nil {
			profile[li] = math.Inf(-1)
			continue
		}
		sse := fit.ResidualSS
		if sse <= 0 {
			sse = 1e-300 // exact fit: likelihood unbounded, still comparable
		}
		ll := -n/2*math.Log(sse/n) + (lam-1)*sumLog
		profile[li] = ll
		if ll > best {
			best = ll
			bestLambda = lam
			bestFit = fit
		}
	}
	if bestFit == nil {
		return 0, nil, nil, fmt.Errorf("rsm: no Box–Cox candidate produced a valid fit")
	}
	return bestLambda, bestFit, profile, nil
}

// StandardizedResiduals returns the internally studentized residuals
// e_i / (σ·√(1−h_i)) — the scale on which |r| > 3 flags outlying runs
// (a botched simulation, a diverged transient).
func (f *Fit) StandardizedResiduals() []float64 {
	out := make([]float64, len(f.Residuals))
	sigma := math.Sqrt(f.Sigma2)
	for i, e := range f.Residuals {
		den := sigma * math.Sqrt(math.Max(1-f.Leverage[i], 1e-12))
		if den == 0 {
			out[i] = 0
			continue
		}
		out[i] = e / den
	}
	return out
}

// CooksDistances returns Cook's distance of every run: the influence of
// deleting that run on the fitted coefficients,
// D_i = r_i²·h_i / (p·(1−h_i)). Runs with D ≫ 4/n dominate the surface
// and deserve a re-simulation check.
func (f *Fit) CooksDistances() []float64 {
	r := f.StandardizedResiduals()
	p := float64(f.Model.P())
	out := make([]float64, len(r))
	for i := range r {
		h := f.Leverage[i]
		out[i] = r[i] * r[i] * h / (p * math.Max(1-h, 1e-12))
	}
	return out
}

// StudentizedResiduals returns the externally studentized (deleted)
// residuals: each residual is scaled by the error estimate from a fit
// WITHOUT that run, via the standard leave-one-out identity
//
//	s²_(i) = ((n−p)·σ² − e_i²/(1−h_i)) / (n−p−1)
//
// Unlike the internal version, a gross outlier cannot mask itself by
// inflating the pooled σ.
func (f *Fit) StudentizedResiduals() []float64 {
	n, p := f.N, f.Model.P()
	out := make([]float64, len(f.Residuals))
	dof := float64(n - p)
	if dof <= 1 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for i, e := range f.Residuals {
		h := math.Min(f.Leverage[i], 1-1e-12)
		s2del := (dof*f.Sigma2 - e*e/(1-h)) / (dof - 1)
		if s2del <= 0 {
			// The deleted fit is exact: this run alone carries all error.
			out[i] = math.Copysign(math.Inf(1), e)
			continue
		}
		out[i] = e / math.Sqrt(s2del*(1-h))
	}
	return out
}

// OutlierRuns returns the indices of runs whose externally studentized
// residual exceeds the threshold (3 is conventional).
func (f *Fit) OutlierRuns(threshold float64) []int {
	if threshold <= 0 {
		threshold = 3
	}
	var out []int
	for i, r := range f.StudentizedResiduals() {
		if math.Abs(r) > threshold {
			out = append(out, i)
		}
	}
	return out
}

// ResidualNormalityCheck returns the Pearson correlation between the
// sorted standardized residuals and their normal quantiles (a Q–Q plot
// correlation): values near 1 support the normal-error assumption behind
// the t/F inference.
func (f *Fit) ResidualNormalityCheck() float64 {
	r := f.StandardizedResiduals()
	n := len(r)
	if n < 3 {
		return math.NaN()
	}
	sorted := append([]float64(nil), r...)
	sortFloats(sorted)
	q := make([]float64, n)
	for i := range q {
		q[i] = stats.NormalQuantile((float64(i) + 0.5) / float64(n))
	}
	return stats.Pearson(sorted, q)
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

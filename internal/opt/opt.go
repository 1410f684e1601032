// Package opt provides the optimizers used on both sides of the paper's
// comparison:
//
//   - On the response surface (cheap evaluations): exhaustive grid search
//     and bounded Nelder–Mead — "practically instant" once the RSM exists.
//   - On the full simulator (expensive evaluations): simulated annealing
//     and a genetic algorithm — the "classical multi-variable optimization
//     methods … difficult to use, due to long CPU times" that the DoE flow
//     displaces. Their evaluation counters are the currency of table R-T5.
//
// All optimizers MINIMIZE; negate the objective to maximize. Searches are
// box-bounded in coded units (or any consistent units the caller chooses).
package opt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Objective is a function to minimize. Implementations are free to close
// over expensive machinery (the full simulator) or a fitted surface.
type Objective func(x []float64) float64

// Result reports an optimization outcome.
type Result struct {
	X     []float64 // best point found
	F     float64   // objective there
	Evals int       // objective evaluations spent
	Iters int       // iterations / generations
}

// Bounds is a per-dimension box constraint.
type Bounds struct {
	Lo, Hi []float64
}

// NewBounds builds symmetric coded bounds (−1…+1) for k dimensions.
func NewBounds(k int) Bounds {
	lo := make([]float64, k)
	hi := make([]float64, k)
	for i := range lo {
		lo[i], hi[i] = -1, 1
	}
	return Bounds{Lo: lo, Hi: hi}
}

// Validate checks the box.
func (b Bounds) Validate() error {
	if len(b.Lo) == 0 || len(b.Lo) != len(b.Hi) {
		return fmt.Errorf("opt: bad bounds dimensions %d/%d", len(b.Lo), len(b.Hi))
	}
	for i := range b.Lo {
		if !(b.Hi[i] > b.Lo[i]) {
			return fmt.Errorf("opt: empty bound %d: [%g, %g]", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// K returns the dimensionality.
func (b Bounds) K() int { return len(b.Lo) }

// Clamp projects x into the box in place.
func (b Bounds) Clamp(x []float64) {
	for i := range x {
		if x[i] < b.Lo[i] {
			x[i] = b.Lo[i]
		}
		if x[i] > b.Hi[i] {
			x[i] = b.Hi[i]
		}
	}
}

// Random returns a uniform random point inside the box.
func (b Bounds) Random(rng *rand.Rand) []float64 {
	x := make([]float64, b.K())
	for i := range x {
		x[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	return x
}

// Quantized wraps an objective so every evaluation snaps its point to a
// lattice with `step` fraction-of-range resolution per dimension (e.g.
// 0.05 → 21 levels across each range). Stochastic searchers like SA and GA
// then revisit exact points instead of infinitesimally-near neighbours; a
// memoizing simulation layer (internal/simcache) then answers the revisits
// for free, at the cost of bounded quantization error in the optimum.
func Quantized(f Objective, b Bounds, step float64) (Objective, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if !(step > 0 && step <= 1) {
		return nil, fmt.Errorf("opt: quantization step %g must be in (0, 1]", step)
	}
	return func(x []float64) float64 {
		q := make([]float64, len(x))
		for i := range x {
			w := (b.Hi[i] - b.Lo[i]) * step
			q[i] = b.Lo[i] + math.Round((x[i]-b.Lo[i])/w)*w
		}
		b.Clamp(q)
		return f(q)
	}, nil
}

// counter wraps an objective with an evaluation counter.
type counter struct {
	f Objective
	n int
}

func (c *counter) eval(x []float64) float64 {
	c.n++
	return c.f(x)
}

// GridSearch evaluates the objective on a regular grid with pointsPerDim
// levels per dimension and returns the best point. Total cost is
// pointsPerDim^k evaluations — the brute-force sweep that is only viable
// on a fitted surface.
func GridSearch(f Objective, b Bounds, pointsPerDim int) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if pointsPerDim < 2 {
		return nil, fmt.Errorf("opt: need ≥2 points per dimension, got %d", pointsPerDim)
	}
	k := b.K()
	total := 1
	for i := 0; i < k; i++ {
		total *= pointsPerDim
		if total > 50_000_000 {
			return nil, fmt.Errorf("opt: grid %d^%d too large", pointsPerDim, k)
		}
	}
	c := &counter{f: f}
	best := Result{F: math.Inf(1)}
	x := make([]float64, k)
	for idx := 0; idx < total; idx++ {
		rem := idx
		for j := 0; j < k; j++ {
			level := rem % pointsPerDim
			rem /= pointsPerDim
			x[j] = b.Lo[j] + float64(level)/float64(pointsPerDim-1)*(b.Hi[j]-b.Lo[j])
		}
		if v := c.eval(x); v < best.F {
			best.F = v
			best.X = append([]float64(nil), x...)
		}
	}
	best.Evals = c.n
	best.Iters = total
	return &best, nil
}

// NelderMeadConfig tunes the simplex search.
type NelderMeadConfig struct {
	MaxIters  int     // iteration cap (default 500)
	Tol       float64 // simplex spread termination tolerance (default 1e-9)
	InitScale float64 // initial simplex edge as a fraction of the box (default 0.1)
}

func (c *NelderMeadConfig) defaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 500
	}
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.InitScale <= 0 {
		c.InitScale = 0.1
	}
}

// NelderMead minimizes f with the downhill-simplex method, clamped to the
// box, starting from x0.
func NelderMead(f Objective, b Bounds, x0 []float64, cfg NelderMeadConfig) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	k := b.K()
	if len(x0) != k {
		return nil, fmt.Errorf("opt: start point has %d dims, want %d", len(x0), k)
	}
	cfg.defaults()
	c := &counter{f: f}

	// Initial simplex: x0 plus k offset vertices.
	pts := make([][]float64, k+1)
	vals := make([]float64, k+1)
	pts[0] = append([]float64(nil), x0...)
	b.Clamp(pts[0])
	for i := 1; i <= k; i++ {
		p := append([]float64(nil), pts[0]...)
		step := cfg.InitScale * (b.Hi[i-1] - b.Lo[i-1])
		if p[i-1]+step > b.Hi[i-1] {
			step = -step
		}
		p[i-1] += step
		pts[i] = p
	}
	for i := range pts {
		vals[i] = c.eval(pts[i])
	}

	order := func() {
		idx := make([]int, k+1)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, bb int) bool { return vals[idx[a]] < vals[idx[bb]] })
		np := make([][]float64, k+1)
		nv := make([]float64, k+1)
		for i, id := range idx {
			np[i], nv[i] = pts[id], vals[id]
		}
		copy(pts, np)
		copy(vals, nv)
	}

	var iters int
	for iters = 0; iters < cfg.MaxIters; iters++ {
		order()
		// Termination: simplex collapsed in objective spread.
		if math.Abs(vals[k]-vals[0]) <= cfg.Tol*(1+math.Abs(vals[0])) {
			break
		}
		// Centroid of all but the worst.
		cen := make([]float64, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				cen[j] += pts[i][j]
			}
		}
		for j := range cen {
			cen[j] /= float64(k)
		}
		moved := func(coef float64) ([]float64, float64) {
			p := make([]float64, k)
			for j := range p {
				p[j] = cen[j] + coef*(cen[j]-pts[k][j])
			}
			b.Clamp(p)
			return p, c.eval(p)
		}
		refl, fr := moved(1)
		switch {
		case fr < vals[0]:
			// Try expansion.
			exp, fe := moved(2)
			if fe < fr {
				pts[k], vals[k] = exp, fe
			} else {
				pts[k], vals[k] = refl, fr
			}
		case fr < vals[k-1]:
			pts[k], vals[k] = refl, fr
		default:
			// Contraction.
			con, fc := moved(-0.5)
			if fc < vals[k] {
				pts[k], vals[k] = con, fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= k; i++ {
					for j := 0; j < k; j++ {
						pts[i][j] = pts[0][j] + 0.5*(pts[i][j]-pts[0][j])
					}
					vals[i] = c.eval(pts[i])
				}
			}
		}
	}
	order()
	return &Result{X: append([]float64(nil), pts[0]...), F: vals[0], Evals: c.n, Iters: iters}, nil
}

// MultiStart runs NelderMead from starts (at least one) uniform random
// points of the box, drawn in turn from one source seeded with seed. It
// returns the best run — the earliest among equals — and the evaluations
// all runs spent together.
func MultiStart(f Objective, b Bounds, starts int, seed int64, cfg NelderMeadConfig) (*Result, int, error) {
	rng := rand.New(rand.NewSource(seed))
	var best *Result
	evals := 0
	for i := 0; i < max(starts, 1); i++ {
		r, err := NelderMead(f, b, b.Random(rng), cfg)
		if err != nil {
			return nil, 0, err
		}
		evals += r.Evals
		if best == nil || r.F < best.F {
			best = r
		}
	}
	return best, evals, nil
}

// AnnealConfig tunes simulated annealing.
type AnnealConfig struct {
	Iters    int     // total iterations (default 2000)
	T0       float64 // initial temperature (default 1, in objective units)
	Cooling  float64 // geometric cooling rate per iteration (default 0.995)
	StepFrac float64 // proposal step as a fraction of each box width (default 0.1)
	Seed     int64
}

func (c *AnnealConfig) defaults() {
	if c.Iters <= 0 {
		c.Iters = 2000
	}
	if c.T0 <= 0 {
		c.T0 = 1
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		c.Cooling = 0.995
	}
	if c.StepFrac <= 0 {
		c.StepFrac = 0.1
	}
}

// SimulatedAnnealing minimizes f with Metropolis acceptance and geometric
// cooling — one of the paper's "classical heuristic" baselines that needs
// thousands of expensive simulations.
func SimulatedAnnealing(f Objective, b Bounds, cfg AnnealConfig) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &counter{f: f}

	cur := b.Random(rng)
	fCur := c.eval(cur)
	best := append([]float64(nil), cur...)
	fBest := fCur
	temp := cfg.T0
	for it := 0; it < cfg.Iters; it++ {
		prop := append([]float64(nil), cur...)
		j := rng.Intn(b.K())
		prop[j] += rng.NormFloat64() * cfg.StepFrac * (b.Hi[j] - b.Lo[j])
		b.Clamp(prop)
		fProp := c.eval(prop)
		if fProp < fCur || rng.Float64() < math.Exp(-(fProp-fCur)/math.Max(temp, 1e-300)) {
			cur, fCur = prop, fProp
			if fCur < fBest {
				fBest = fCur
				copy(best, cur)
			}
		}
		temp *= cfg.Cooling
	}
	return &Result{X: best, F: fBest, Evals: c.n, Iters: cfg.Iters}, nil
}

// GAConfig tunes the genetic algorithm.
type GAConfig struct {
	Pop       int     // population size (default 30)
	Gens      int     // generations (default 50)
	CrossProb float64 // crossover probability (default 0.9)
	MutProb   float64 // per-gene mutation probability (default 0.15)
	MutSigma  float64 // mutation std as a fraction of box width (default 0.1)
	Elites    int     // individuals copied unchanged (default 2)
	TournSize int     // tournament size (default 3)
	Seed      int64
}

func (c *GAConfig) defaults() {
	if c.Pop <= 0 {
		c.Pop = 30
	}
	if c.Gens <= 0 {
		c.Gens = 50
	}
	if c.CrossProb <= 0 {
		c.CrossProb = 0.9
	}
	if c.MutProb <= 0 {
		c.MutProb = 0.15
	}
	if c.MutSigma <= 0 {
		c.MutSigma = 0.1
	}
	if c.Elites < 0 {
		c.Elites = 0
	}
	if c.Elites >= c.Pop {
		c.Elites = c.Pop / 2
	}
	if c.TournSize <= 0 {
		c.TournSize = 3
	}
}

// GeneticAlgorithm minimizes f with a real-coded GA (tournament selection,
// blend crossover, Gaussian mutation, elitism) — the second classical
// baseline.
func GeneticAlgorithm(f Objective, b Bounds, cfg GAConfig) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &counter{f: f}
	k := b.K()

	pop := make([][]float64, cfg.Pop)
	fit := make([]float64, cfg.Pop)
	for i := range pop {
		pop[i] = b.Random(rng)
		fit[i] = c.eval(pop[i])
	}
	tournament := func() int {
		best := rng.Intn(cfg.Pop)
		for i := 1; i < cfg.TournSize; i++ {
			if cand := rng.Intn(cfg.Pop); fit[cand] < fit[best] {
				best = cand
			}
		}
		return best
	}
	for gen := 0; gen < cfg.Gens; gen++ {
		// Rank for elitism.
		idx := make([]int, cfg.Pop)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, bb int) bool { return fit[idx[a]] < fit[idx[bb]] })
		next := make([][]float64, 0, cfg.Pop)
		nextFit := make([]float64, 0, cfg.Pop)
		for e := 0; e < cfg.Elites; e++ {
			next = append(next, append([]float64(nil), pop[idx[e]]...))
			nextFit = append(nextFit, fit[idx[e]])
		}
		for len(next) < cfg.Pop {
			p1, p2 := pop[tournament()], pop[tournament()]
			child := make([]float64, k)
			if rng.Float64() < cfg.CrossProb {
				// Blend (BLX-style) crossover.
				for j := 0; j < k; j++ {
					w := rng.Float64()
					child[j] = w*p1[j] + (1-w)*p2[j]
				}
			} else {
				copy(child, p1)
			}
			for j := 0; j < k; j++ {
				if rng.Float64() < cfg.MutProb {
					child[j] += rng.NormFloat64() * cfg.MutSigma * (b.Hi[j] - b.Lo[j])
				}
			}
			b.Clamp(child)
			next = append(next, child)
			nextFit = append(nextFit, c.eval(child))
		}
		pop, fit = next, nextFit
	}
	best := 0
	for i := range fit {
		if fit[i] < fit[best] {
			best = i
		}
	}
	return &Result{X: append([]float64(nil), pop[best]...), F: fit[best], Evals: c.n, Iters: cfg.Gens}, nil
}

// Maximize adapts a maximization objective to the minimizing optimizers.
func Maximize(f Objective) Objective {
	return func(x []float64) float64 { return -f(x) }
}

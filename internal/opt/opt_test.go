package opt

import (
	"math"
	"math/rand"
	"testing"
)

// sphere has its minimum 0 at the given centre.
func sphere(center []float64) Objective {
	return func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - center[i]
			s += d * d
		}
		return s
	}
}

// rosenbrock is the classic banana valley, minimum 0 at (1, 1).
func rosenbrock(x []float64) float64 {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b
}

// rastrigin is multimodal with the global minimum 0 at the origin.
func rastrigin(x []float64) float64 {
	s := 10.0 * float64(len(x))
	for _, v := range x {
		s += v*v - 10*math.Cos(2*math.Pi*v)
	}
	return s
}

func TestBounds(t *testing.T) {
	b := NewBounds(3)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.K() != 3 {
		t.Fatalf("K = %d", b.K())
	}
	x := []float64{-5, 0.5, 5}
	b.Clamp(x)
	if x[0] != -1 || x[1] != 0.5 || x[2] != 1 {
		t.Fatalf("clamped = %v", x)
	}
	if err := (Bounds{Lo: []float64{0}, Hi: []float64{0}}).Validate(); err == nil {
		t.Fatal("empty box must be rejected")
	}
	if err := (Bounds{Lo: []float64{0}, Hi: []float64{1, 2}}).Validate(); err == nil {
		t.Fatal("dim mismatch must be rejected")
	}
}

func TestGridSearchFindsMinimum(t *testing.T) {
	res, err := GridSearch(sphere([]float64{0.5, -0.5}), NewBounds(2), 21)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 441 {
		t.Fatalf("evals = %d, want 441", res.Evals)
	}
	if math.Abs(res.X[0]-0.5) > 0.051 || math.Abs(res.X[1]+0.5) > 0.051 {
		t.Fatalf("grid optimum %v, want ≈(0.5, −0.5)", res.X)
	}
}

func TestGridSearchValidation(t *testing.T) {
	if _, err := GridSearch(rosenbrock, NewBounds(2), 1); err == nil {
		t.Fatal("1 point per dim must error")
	}
	if _, err := GridSearch(rosenbrock, NewBounds(12), 100); err == nil {
		t.Fatal("oversized grid must error")
	}
	if _, err := GridSearch(rosenbrock, Bounds{}, 5); err == nil {
		t.Fatal("empty bounds must error")
	}
}

func TestNelderMeadSphere(t *testing.T) {
	res, err := NelderMead(sphere([]float64{0.3, -0.2}), NewBounds(2), []float64{0, 0}, NelderMeadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-8 {
		t.Fatalf("f = %v, want ≈0", res.F)
	}
	if math.Abs(res.X[0]-0.3) > 1e-4 || math.Abs(res.X[1]+0.2) > 1e-4 {
		t.Fatalf("x = %v", res.X)
	}
	if res.Evals == 0 || res.Iters == 0 {
		t.Fatal("work counters missing")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	b := Bounds{Lo: []float64{-2, -2}, Hi: []float64{2, 2}}
	res, err := NelderMead(rosenbrock, b, []float64{-1.2, 1}, NelderMeadConfig{MaxIters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-6 {
		t.Fatalf("rosenbrock f = %v at %v", res.F, res.X)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Unconstrained minimum at (2,2) — outside the unit box; search must
	// end on the boundary.
	res, err := NelderMead(sphere([]float64{2, 2}), NewBounds(2), []float64{0, 0}, NelderMeadConfig{MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.X {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("escaped the box: %v", res.X)
		}
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("boundary optimum %v, want (1,1)", res.X)
	}
}

func TestNelderMeadValidation(t *testing.T) {
	if _, err := NelderMead(rosenbrock, NewBounds(2), []float64{0}, NelderMeadConfig{}); err == nil {
		t.Fatal("start-point dim mismatch must error")
	}
	if _, err := NelderMead(rosenbrock, Bounds{}, nil, NelderMeadConfig{}); err == nil {
		t.Fatal("empty bounds must error")
	}
}

func TestSimulatedAnnealingSphere(t *testing.T) {
	res, err := SimulatedAnnealing(sphere([]float64{0.4, 0.4}), NewBounds(2), AnnealConfig{Iters: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-2 {
		t.Fatalf("SA f = %v", res.F)
	}
	if res.Evals != 5001 {
		t.Fatalf("SA evals = %d, want 5001", res.Evals)
	}
}

func TestSimulatedAnnealingEscapesLocalMinima(t *testing.T) {
	// Rastrigin in 2D: SA should land well below the worst local minima
	// (~20+) even if it misses the exact global optimum.
	res, err := SimulatedAnnealing(rastrigin, Bounds{Lo: []float64{-5, -5}, Hi: []float64{5, 5}},
		AnnealConfig{Iters: 20000, T0: 5, Cooling: 0.9995, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 2.5 {
		t.Fatalf("SA stuck at f = %v", res.F)
	}
}

func TestSimulatedAnnealingDeterministic(t *testing.T) {
	cfg := AnnealConfig{Iters: 500, Seed: 7}
	a, _ := SimulatedAnnealing(rosenbrock, NewBounds(2), cfg)
	b, _ := SimulatedAnnealing(rosenbrock, NewBounds(2), cfg)
	if a.F != b.F || a.X[0] != b.X[0] {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestGeneticAlgorithmSphere(t *testing.T) {
	res, err := GeneticAlgorithm(sphere([]float64{-0.3, 0.6}), NewBounds(2), GAConfig{Pop: 40, Gens: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-3 {
		t.Fatalf("GA f = %v at %v", res.F, res.X)
	}
	// Evaluation budget accounting: initial pop + offspring per generation.
	if res.Evals < 40 {
		t.Fatalf("GA evals = %d", res.Evals)
	}
}

func TestGeneticAlgorithmMultimodal(t *testing.T) {
	res, err := GeneticAlgorithm(rastrigin, Bounds{Lo: []float64{-5, -5}, Hi: []float64{5, 5}},
		GAConfig{Pop: 60, Gens: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 2.5 {
		t.Fatalf("GA stuck at f = %v (x=%v)", res.F, res.X)
	}
}

func TestGeneticAlgorithmElitismMonotone(t *testing.T) {
	// With elitism the best objective must never get worse: run twice with
	// different budgets and compare.
	short, err := GeneticAlgorithm(rosenbrock, NewBounds(2), GAConfig{Pop: 30, Gens: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	long, err := GeneticAlgorithm(rosenbrock, NewBounds(2), GAConfig{Pop: 30, Gens: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if long.F > short.F+1e-12 {
		t.Fatalf("more generations must not hurt: %v vs %v", long.F, short.F)
	}
}

func TestGADeterministic(t *testing.T) {
	cfg := GAConfig{Pop: 20, Gens: 20, Seed: 13}
	a, _ := GeneticAlgorithm(rosenbrock, NewBounds(2), cfg)
	b, _ := GeneticAlgorithm(rosenbrock, NewBounds(2), cfg)
	if a.F != b.F {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestMaximize(t *testing.T) {
	// Maximize −sphere = minimize sphere.
	obj := Maximize(func(x []float64) float64 { return -sphere([]float64{0, 0})(x) })
	res, err := NelderMead(obj, NewBounds(2), []float64{0.5, 0.5}, NelderMeadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-4 || math.Abs(res.X[1]) > 1e-4 {
		t.Fatalf("maximized at %v, want origin", res.X)
	}
}

func TestQuantized(t *testing.T) {
	b := NewBounds(2)
	var got [][]float64
	f := func(x []float64) float64 {
		got = append(got, append([]float64(nil), x...))
		return x[0] + x[1]
	}
	q, err := Quantized(f, b, 0.25) // lattice −1, −0.5, 0, 0.5, 1
	if err != nil {
		t.Fatal(err)
	}
	q([]float64{0.24, -0.26})
	q([]float64{0.26, 0.9})
	q([]float64{5, -5}) // clamped to the box
	want := [][]float64{{0, -0.5}, {0.5, 1}, {1, -1}}
	for i, w := range want {
		for j := range w {
			if got[i][j] != w[j] {
				t.Fatalf("call %d: snapped to %v, want %v", i, got[i], w)
			}
		}
	}
	// Nearby proposals collapse onto the same lattice point — the property
	// that makes simulator memoization effective under SA/GA.
	if q([]float64{0.01, 0.02}) != q([]float64{-0.02, -0.01}) {
		t.Fatal("neighbours must share a lattice point")
	}
	// Errors.
	if _, err := Quantized(f, Bounds{}, 0.1); err == nil {
		t.Fatal("bad bounds must be rejected")
	}
	if _, err := Quantized(f, b, 0); err == nil {
		t.Fatal("zero step must be rejected")
	}
	if _, err := Quantized(f, b, 1.5); err == nil {
		t.Fatal("step > 1 must be rejected")
	}
}

func TestMultiStart(t *testing.T) {
	b := NewBounds(2)
	cfg := NelderMeadConfig{MaxIters: 50}
	best, evals, err := MultiStart(rastrigin, b, 5, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same starts, drawn and run one by one.
	rng := rand.New(rand.NewSource(3))
	var want *Result
	sum := 0
	for i := 0; i < 5; i++ {
		r, err := NelderMead(rastrigin, b, b.Random(rng), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Evals
		if want == nil || r.F < want.F {
			want = r
		}
	}
	if evals != sum || best.F != want.F || best.X[0] != want.X[0] || best.X[1] != want.X[1] {
		t.Fatalf("MultiStart = %v (%d evals), want %v (%d evals)", best, evals, want, sum)
	}
	// Fewer than one start means one.
	one, evals1, err := MultiStart(rastrigin, b, 0, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := NelderMead(rastrigin, b, b.Random(rand.New(rand.NewSource(3))), cfg)
	if one.F != first.F || evals1 != first.Evals {
		t.Fatalf("starts 0: %v (%d evals), want the first start %v", one, evals1, first)
	}
	if _, _, err := MultiStart(rastrigin, Bounds{}, 2, 1, cfg); err == nil {
		t.Fatal("bad bounds must fail")
	}
}

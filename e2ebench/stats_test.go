package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the functions must sort
	}
	return xs
}

// TestTailPercentile pins the rule behind build_tail_ms: the highest
// candidate percentile with at least ten samples ranked beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		p, val float64
		ok     bool
	}{
		{n: 0, p: 50, val: 0, ok: false},
		{n: 19, p: 50, val: 10, ok: false},   // 9 beyond the median: too few
		{n: 20, p: 50, val: 10, ok: true},    // exactly 10 beyond
		{n: 40, p: 75, val: 30, ok: true},    // 10 beyond p75
		{n: 49, p: 75, val: 37, ok: true},    // p80 rank 40 leaves 9
		{n: 50, p: 80, val: 40, ok: true},    // p80 rank 40 leaves 10
		{n: 100, p: 90, val: 90, ok: true},   // p95 leaves 5
		{n: 1000, p: 99, val: 990, ok: true}, // p99.5 leaves 5
		{n: 10000, p: 99.9, val: 9990, ok: true},
	}
	for _, c := range cases {
		p, val, ok := tailPercentile(seq(c.n))
		if p != c.p || val != c.val || ok != c.ok {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", c.n, p, val, ok, c.p, c.val, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {11, 2}, {50, 5}, {99, 10}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles build_tail_ms may report, highest
// first. settings.json fixes one per workload: the highest that reference
// runs support with minBeyond samples beyond it.
var tailCandidates = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: fewer make the value one or two outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p in n sorted
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 is
	// 9990.000000000002) from bumping an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for an
// empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond samples ranked beyond it, and its value. ok is false when even
// the median has fewer than minBeyond samples beyond it; the median is
// returned then.
func tailPercentile(xs []float64) (p, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 50, 0, false
	}
	for _, c := range tailCandidates {
		if beyond(c, n) >= minBeyond {
			return c, s[rank(c, n)-1], true
		}
	}
	return 50, s[rank(50, n)-1], false
}

// beyond is how many of n samples rank beyond percentile p.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - rank(p, n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

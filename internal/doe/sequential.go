package doe

import (
	"fmt"
	"math"
)

// CandidateLattice returns the candidate pool for sequential D-optimal
// augmentation: the full grid of `levels` evenly spaced coded levels per
// factor spanning −1…+1. The levels are exactly the lattice opt.Quantized
// snaps to with step = 1/(levels−1), so every candidate an adaptive build
// simulates lands on the same points an optimizer revisits — repeat visits
// are simcache hits, never fresh simulations.
func CandidateLattice(k, levels int) (*Design, error) {
	d, err := FullFactorial(k, levels)
	if err != nil {
		return nil, err
	}
	d.Name = fmt.Sprintf("lattice-%d^%d", levels, k)
	return d, nil
}

// runKey identifies a coded run by its exact float64 bit pattern, so
// duplicate detection matches the simcache's notion of "same point".
func runKey(r []float64) string {
	b := make([]byte, 0, 8*len(r))
	for _, v := range r {
		u := math.Float64bits(v)
		b = append(b,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

// AugmentDOptimal grows an existing design by `add` runs chosen from the
// candidate pool to maximize the determinant of the information matrix XᵀX,
// keeping every base run fixed. Each greedy addition picks the candidate with
// the largest prediction variance d(x) = xᵀ(XᵀX)⁻¹x — the point the current
// design knows least about, and exactly the choice that maximizes the
// determinant ratio 1+d(x) — scored against a Sherman–Morrison-maintained
// inverse. A Fedorov exchange (see exchange) then tries to improve the
// *added* block only: base runs are already simulated and never swapped out.
//
// Candidates that exactly duplicate a base or already-added run are skipped
// while distinct candidates remain (replicating a deterministic simulation
// buys no information); if the pool is exhausted, duplicates are allowed so
// the requested count is always returned.
func AugmentDOptimal(base, candidates *Design, add int, modelRow func([]float64) []float64, maxPasses int) (*Design, error) {
	if add < 1 {
		return nil, fmt.Errorf("doe: augment needs ≥1 added run, got %d", add)
	}
	nc := candidates.N()
	if nc == 0 {
		return nil, fmt.Errorf("doe: empty candidate set")
	}
	if base.N() > 0 && base.K() != candidates.K() {
		return nil, fmt.Errorf("doe: base has %d factors, candidates %d", base.K(), candidates.K())
	}
	if maxPasses <= 0 {
		maxPasses = 20
	}
	p := len(modelRow(candidates.Runs[0]))
	baseRows := make([][]float64, base.N())
	baseSel := make([]int, base.N())
	for i, r := range base.Runs {
		baseRows[i] = modelRow(r)
		baseSel[i] = i
	}
	candRows := make([][]float64, nc)
	for i, r := range candidates.Runs {
		candRows[i] = modelRow(r)
	}

	// (XᵀX + ridge·I)⁻¹ of the base design; the ridge keeps the early rounds
	// invertible while n < p and is negligible once the design identifies the
	// model.
	minv := newRidgeInverse(baseRows, baseSel, p, 1e-8)
	if minv == nil {
		return nil, fmt.Errorf("doe: could not invert the base information matrix")
	}

	// Candidates sharing a run key share a slot; taken counts the design
	// runs (base and added) sitting on each slot.
	slot := make([]int, nc)
	slots := make(map[string]int, nc)
	for i, r := range candidates.Runs {
		key := runKey(r)
		id, ok := slots[key]
		if !ok {
			id = len(slots)
			slots[key] = id
		}
		slot[i] = id
	}
	taken := make([]int, len(slots))
	for _, r := range base.Runs {
		if id, ok := slots[runKey(r)]; ok {
			taken[id]++
		}
	}

	// Greedy additions: highest prediction variance first.
	sel := make([]int, 0, add)
	d := make([]float64, nc)
	for t := 0; t < add; t++ {
		variances(d, minv, candRows)
		best, bestD := -1, math.Inf(-1)
		bestDup, bestDupD := -1, math.Inf(-1)
		for c, dc := range d {
			if taken[slot[c]] == 0 {
				if dc > bestD {
					best, bestD = c, dc
				}
			} else if dc > bestDupD {
				bestDup, bestDupD = c, dc
			}
		}
		if best < 0 {
			best = bestDup // pool exhausted: replicate the most informative point
		}
		shermanMorrison(minv, candRows[best], +1)
		taken[slot[best]]++
		sel = append(sel, best)
	}

	exchange(minv, candRows, sel, slot, taken, maxPasses)

	added := &Design{Name: fmt.Sprintf("D-aug(+%d)", add), Runs: make([][]float64, len(sel))}
	for i, id := range sel {
		added.Runs[i] = append([]float64(nil), candidates.Runs[id]...)
	}
	if base.N() == 0 {
		return added, nil
	}
	return base.Append(added)
}

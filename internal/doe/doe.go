// Package doe generates designed experiments over k factors in coded units
// (−1 … +1): the experiment plans whose runs are the "moderate number of
// simulations" the paper spends to build its response surfaces.
//
// Provided designs: two-level full factorial, regular two-level fractional
// factorial (via generator strings), Plackett–Burman screening designs,
// central composite (circumscribed/face-centred/inscribed), Box–Behnken,
// maximin Latin hypercube sampling, and D-optimal subsets selected by
// Fedorov exchange.
package doe

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Design is a set of experiment runs; Runs[i][j] is the coded level of
// factor j in run i.
type Design struct {
	Name string
	Runs [][]float64
}

// K returns the number of factors (0 for an empty design).
func (d *Design) K() int {
	if len(d.Runs) == 0 {
		return 0
	}
	return len(d.Runs[0])
}

// N returns the number of runs.
func (d *Design) N() int { return len(d.Runs) }

// Append returns a new design with the runs of other appended.
func (d *Design) Append(other *Design) (*Design, error) {
	if d.N() > 0 && other.N() > 0 && d.K() != other.K() {
		return nil, fmt.Errorf("doe: cannot append %d-factor design to %d-factor design", other.K(), d.K())
	}
	runs := make([][]float64, 0, d.N()+other.N())
	runs = append(runs, cloneRuns(d.Runs)...)
	runs = append(runs, cloneRuns(other.Runs)...)
	return &Design{Name: d.Name + "+" + other.Name, Runs: runs}, nil
}

func cloneRuns(runs [][]float64) [][]float64 {
	out := make([][]float64, len(runs))
	for i, r := range runs {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Factor maps between coded (−1…+1) and natural units.
type Factor struct {
	Name string
	Min  float64
	Max  float64
	Unit string
}

// Validate checks the range.
func (f Factor) Validate() error {
	if !(f.Max > f.Min) {
		return fmt.Errorf("doe: factor %q has empty range [%g, %g]", f.Name, f.Min, f.Max)
	}
	return nil
}

// Decode converts a coded level to natural units.
func (f Factor) Decode(coded float64) float64 {
	return f.Min + (coded+1)/2*(f.Max-f.Min)
}

// Encode converts a natural value to coded units.
func (f Factor) Encode(natural float64) float64 {
	return 2*(natural-f.Min)/(f.Max-f.Min) - 1
}

// DecodeRun converts one coded run to natural units using factors.
func DecodeRun(factors []Factor, coded []float64) ([]float64, error) {
	if len(factors) != len(coded) {
		return nil, fmt.Errorf("doe: %d factors but %d coded values", len(factors), len(coded))
	}
	out := make([]float64, len(coded))
	for i, f := range factors {
		out[i] = f.Decode(coded[i])
	}
	return out, nil
}

// FullFactorial returns the full factorial design with the given number of
// evenly spaced levels per factor (levels ≥ 2), spanning −1…+1.
func FullFactorial(k, levels int) (*Design, error) {
	if k < 1 {
		return nil, fmt.Errorf("doe: need ≥1 factor, got %d", k)
	}
	if levels < 2 {
		return nil, fmt.Errorf("doe: need ≥2 levels, got %d", levels)
	}
	n := 1
	for i := 0; i < k; i++ {
		n *= levels
		if n > 1<<22 {
			return nil, fmt.Errorf("doe: full factorial %d^%d too large", levels, k)
		}
	}
	lv := make([]float64, levels)
	for i := range lv {
		lv[i] = -1 + 2*float64(i)/float64(levels-1)
	}
	runs := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		rem := i
		for j := 0; j < k; j++ {
			row[j] = lv[rem%levels]
			rem /= levels
		}
		runs[i] = row
	}
	return &Design{Name: fmt.Sprintf("full-%d^%d", levels, k), Runs: runs}, nil
}

// TwoLevelFactorial returns the 2^k corner design.
func TwoLevelFactorial(k int) (*Design, error) {
	d, err := FullFactorial(k, 2)
	if err != nil {
		return nil, err
	}
	d.Name = fmt.Sprintf("2^%d", k)
	return d, nil
}

// FractionalFactorial returns a regular 2^(k−p) design. base is the number
// of independent factors; each generator defines one additional factor as a
// product of base factors, written like "E=ABCD" (letters A… map to factors
// 1…). The returned design has base+len(generators) factors in the order
// A, B, …, then the generated ones.
func FractionalFactorial(base int, generators []string) (*Design, error) {
	if base < 2 || base > 20 {
		return nil, fmt.Errorf("doe: base factor count %d out of range", base)
	}
	full, err := TwoLevelFactorial(base)
	if err != nil {
		return nil, err
	}
	type gen struct{ cols []int }
	gens := make([]gen, 0, len(generators))
	for _, g := range generators {
		parts := strings.SplitN(strings.ReplaceAll(g, " ", ""), "=", 2)
		if len(parts) != 2 || len(parts[1]) == 0 {
			return nil, fmt.Errorf("doe: bad generator %q (want like \"E=ABC\")", g)
		}
		var cols []int
		for _, ch := range strings.ToUpper(parts[1]) {
			idx := int(ch - 'A')
			if idx < 0 || idx >= base {
				return nil, fmt.Errorf("doe: generator %q references factor %c outside the %d base factors", g, ch, base)
			}
			cols = append(cols, idx)
		}
		gens = append(gens, gen{cols: cols})
	}
	runs := make([][]float64, full.N())
	for i, row := range full.Runs {
		out := make([]float64, base+len(gens))
		copy(out, row)
		for gi, g := range gens {
			v := 1.0
			for _, c := range g.cols {
				v *= row[c]
			}
			out[base+gi] = v
		}
		runs[i] = out
	}
	return &Design{
		Name: fmt.Sprintf("2^(%d-%d)", base+len(gens), len(gens)),
		Runs: runs,
	}, nil
}

// pbGenerators are the classical first rows of Plackett–Burman designs.
var pbGenerators = map[int][]int{
	12: {1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1},
	20: {1, 1, -1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, 1, 1, -1},
	24: {1, 1, 1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, -1, -1, -1},
}

// PlackettBurman returns an n-run screening design for up to n−1 factors
// (n ∈ {4, 8, 12, 16, 20, 24}); k columns are kept.
func PlackettBurman(n, k int) (*Design, error) {
	if k < 1 || k > n-1 {
		return nil, fmt.Errorf("doe: PB(%d) supports 1–%d factors, got %d", n, n-1, k)
	}
	var rows [][]float64
	switch n {
	case 4, 8, 16:
		h := hadamardSylvester(n)
		rows = make([][]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, n-1)
			copy(row, h[i][1:]) // drop the constant column
			rows[i] = row
		}
	case 12, 20, 24:
		g := pbGenerators[n]
		rows = make([][]float64, 0, n)
		for shift := 0; shift < n-1; shift++ {
			row := make([]float64, n-1)
			for j := 0; j < n-1; j++ {
				row[j] = float64(g[(j+shift)%(n-1)])
			}
			rows = append(rows, row)
		}
		all := make([]float64, n-1)
		for i := range all {
			all[i] = -1
		}
		rows = append(rows, all)
	default:
		return nil, fmt.Errorf("doe: PB run count %d unsupported (use 4, 8, 12, 16, 20 or 24)", n)
	}
	runs := make([][]float64, len(rows))
	for i, r := range rows {
		runs[i] = append([]float64(nil), r[:k]...)
	}
	return &Design{Name: fmt.Sprintf("PB%d", n), Runs: runs}, nil
}

// hadamardSylvester builds the order-n Sylvester Hadamard matrix (n a power
// of two) with ±1 entries.
func hadamardSylvester(n int) [][]float64 {
	h := [][]float64{{1}}
	for m := 1; m < n; m *= 2 {
		nh := make([][]float64, 2*m)
		for i := 0; i < m; i++ {
			top := make([]float64, 2*m)
			bot := make([]float64, 2*m)
			for j := 0; j < m; j++ {
				top[j], top[m+j] = h[i][j], h[i][j]
				bot[j], bot[m+j] = h[i][j], -h[i][j]
			}
			nh[i], nh[m+i] = top, bot
		}
		h = nh
	}
	return h
}

// CCDKind selects the central composite variant.
type CCDKind int

const (
	// CCC is the circumscribed (rotatable) CCD with α = (2^k)^{1/4}.
	CCC CCDKind = iota
	// CCF is the face-centred CCD with α = 1.
	CCF
	// CCI is the inscribed CCD: a CCC shrunk so all points lie in −1…+1.
	CCI
)

// CentralComposite returns a CCD for k factors with nCenter centre runs:
// the 2^k factorial corners, 2k axial points, and the centres. This is the
// workhorse design for fitting full quadratic response surfaces.
func CentralComposite(k int, kind CCDKind, nCenter int) (*Design, error) {
	if k < 2 {
		return nil, fmt.Errorf("doe: CCD needs ≥2 factors, got %d", k)
	}
	if nCenter < 1 {
		return nil, fmt.Errorf("doe: CCD needs ≥1 centre run, got %d", nCenter)
	}
	corners, err := TwoLevelFactorial(k)
	if err != nil {
		return nil, err
	}
	alpha := math.Pow(float64(int(1)<<uint(k)), 0.25)
	scale := 1.0
	name := "CCC"
	switch kind {
	case CCF:
		alpha = 1
		name = "CCF"
	case CCI:
		scale = 1 / alpha
		name = "CCI"
	}
	runs := make([][]float64, 0, corners.N()+2*k+nCenter)
	for _, r := range corners.Runs {
		row := make([]float64, k)
		for j, v := range r {
			row[j] = v * scale
		}
		runs = append(runs, row)
	}
	for j := 0; j < k; j++ {
		for _, sgn := range []float64{-1, 1} {
			row := make([]float64, k)
			row[j] = sgn * alpha * scale
			runs = append(runs, row)
		}
	}
	for c := 0; c < nCenter; c++ {
		runs = append(runs, make([]float64, k))
	}
	return &Design{Name: fmt.Sprintf("%s(k=%d)", name, k), Runs: runs}, nil
}

// BoxBehnken returns the Box–Behnken design for k ≥ 3 factors: ±1/±1 on
// every factor pair with the rest at 0, plus nCenter centre runs. All
// points lie on the edges of the cube (no corners), making it cheaper than
// a CCD when corner settings are expensive or infeasible.
func BoxBehnken(k, nCenter int) (*Design, error) {
	if k < 3 {
		return nil, fmt.Errorf("doe: Box–Behnken needs ≥3 factors, got %d", k)
	}
	if nCenter < 1 {
		return nil, fmt.Errorf("doe: Box–Behnken needs ≥1 centre run, got %d", nCenter)
	}
	var runs [][]float64
	for i := 0; i < k-1; i++ {
		for j := i + 1; j < k; j++ {
			for _, si := range []float64{-1, 1} {
				for _, sj := range []float64{-1, 1} {
					row := make([]float64, k)
					row[i], row[j] = si, sj
					runs = append(runs, row)
				}
			}
		}
	}
	for c := 0; c < nCenter; c++ {
		runs = append(runs, make([]float64, k))
	}
	return &Design{Name: fmt.Sprintf("BBD(k=%d)", k), Runs: runs}, nil
}

// LatinHypercube returns an n-run maximin Latin hypercube over k factors:
// each factor is stratified into n cells with one sample per cell
// (mid-cell positions), and the pairing is improved by swap hill-climbing
// on the minimum pairwise distance for iters iterations.
func LatinHypercube(k, n int, seed int64, iters int) (*Design, error) {
	if k < 1 || n < 2 {
		return nil, fmt.Errorf("doe: LHS needs ≥1 factor and ≥2 runs, got k=%d n=%d", k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int, k)
	for j := range cols {
		cols[j] = rng.Perm(n)
	}
	level := func(cell int) float64 {
		return -1 + 2*(float64(cell)+0.5)/float64(n)
	}
	minDist := func() float64 {
		best := math.Inf(1)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				var d2 float64
				for j := 0; j < k; j++ {
					diff := level(cols[j][a]) - level(cols[j][b])
					d2 += diff * diff
				}
				if d2 < best {
					best = d2
				}
			}
		}
		return best
	}
	if k > 1 { // with one factor any permutation is already optimal
		cur := minDist()
		for it := 0; it < iters; it++ {
			j := rng.Intn(k)
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			cols[j][a], cols[j][b] = cols[j][b], cols[j][a]
			if nd := minDist(); nd >= cur {
				cur = nd
			} else {
				cols[j][a], cols[j][b] = cols[j][b], cols[j][a]
			}
		}
	}
	runs := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for j := 0; j < k; j++ {
			row[j] = level(cols[j][i])
		}
		runs[i] = row
	}
	return &Design{Name: fmt.Sprintf("LHS(n=%d)", n), Runs: runs}, nil
}

// DOptimal selects size runs from the candidate design maximizing the
// determinant of the information matrix XᵀX, where modelRow expands a coded
// run into its model-matrix row (e.g. a full-quadratic basis). Selection is
// by Fedorov exchange from a random start (see exchange), with (XᵀX)⁻¹
// maintained by Sherman–Morrison rank-one updates.
func DOptimal(candidates *Design, size int, modelRow func([]float64) []float64, seed int64, maxPasses int) (*Design, error) {
	nc := candidates.N()
	if nc == 0 {
		return nil, fmt.Errorf("doe: empty candidate set")
	}
	p := len(modelRow(candidates.Runs[0]))
	if size < p {
		return nil, fmt.Errorf("doe: size %d below model dimension %d", size, p)
	}
	if size > nc {
		return nil, fmt.Errorf("doe: size %d exceeds candidate count %d", size, nc)
	}
	if maxPasses <= 0 {
		maxPasses = 20
	}
	rows := make([][]float64, nc)
	slot := make([]int, nc) // every candidate is its own slot
	for i, r := range candidates.Runs {
		rows[i] = modelRow(r)
		slot[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	sel := rng.Perm(nc)[:size]
	taken := make([]int, nc)
	for _, id := range sel {
		taken[id] = 1
	}

	// Information matrix with a small ridge so a degenerate random start
	// still inverts; the ridge is negligible once the exchange converges.
	minv := newRidgeInverse(rows, sel, p, 1e-8)
	if minv == nil {
		return nil, fmt.Errorf("doe: could not invert the starting information matrix")
	}
	exchange(minv, rows, sel, slot, taken, maxPasses)
	sort.Ints(sel)
	runs := make([][]float64, size)
	for i, id := range sel {
		runs[i] = append([]float64(nil), candidates.Runs[id]...)
	}
	return &Design{Name: fmt.Sprintf("D-opt(n=%d)", size), Runs: runs}, nil
}

// exchange runs up to maxPasses Fedorov exchange passes over sel, a block
// of candidate indices whose rows are already in minv = (XᵀX)⁻¹. Each
// position is swapped for the outside candidate with the largest
// determinant ratio
//
//	Δ(x_in, x_out) = (1 + d(x_in))·(1 − d(x_out)) + d(x_in, x_out)²
//
// with d(x, y) = xᵀ(XᵀX)⁻¹y, when that ratio exceeds 1. Candidate c may
// enter only while taken[slot[c]] is zero; a swap moves one count from the
// outgoing slot to the incoming one.
//
// Each candidate costs O(p) per position: minv changes only when a swap
// commits, so d(x) of every candidate is kept in a slice and recomputed
// then, and each position computes mo = (XᵀX)⁻¹·x_out once, which turns
// d(x_in, x_out) into a dot product. Both do quadForm's float operations in
// quadForm's order, so the selection is exactly the one that evaluating
// both quadratic forms per candidate makes.
func exchange(minv, rows [][]float64, sel, slot, taken []int, maxPasses int) {
	d := make([]float64, len(rows))
	variances(d, minv, rows)
	mo := make([]float64, len(minv))
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for si, outID := range sel {
			out := rows[outID]
			dOut := d[outID]
			mulVec(mo, minv, out)
			bestDelta, bestCand := 1.0+1e-12, -1
			for c, in := range rows {
				if taken[slot[c]] > 0 {
					continue
				}
				dCross := dotNonzero(in, mo)
				delta := (1+d[c])*(1-dOut) + dCross*dCross
				if delta > bestDelta {
					bestDelta, bestCand = delta, c
				}
			}
			if bestCand < 0 {
				continue
			}
			// Commit: add new row, remove old row (two rank-one updates).
			shermanMorrison(minv, rows[bestCand], +1)
			shermanMorrison(minv, out, -1)
			variances(d, minv, rows)
			taken[slot[outID]]--
			taken[slot[bestCand]]++
			sel[si] = bestCand
			improved = true
		}
		if !improved {
			break
		}
	}
}

// variances sets d[c] = d(x_c) = x_cᵀ·M·x_c for every row.
func variances(d []float64, m, rows [][]float64) {
	for c, r := range rows {
		d[c] = quadForm(m, r, r)
	}
}

// mulVec sets y = M·x, each entry summed as quadForm sums its inner loop.
func mulVec(y []float64, m [][]float64, x []float64) {
	for i, row := range m {
		var t float64
		for j := range x {
			t += row[j] * x[j]
		}
		y[i] = t
	}
}

// dotNonzero returns xᵀy summed over the nonzero entries of x in index
// order: quadForm's outer loop, with y = M·y′ precomputed by mulVec.
func dotNonzero(x, y []float64) float64 {
	var s float64
	for i, v := range x {
		if v == 0 {
			continue
		}
		s += v * y[i]
	}
	return s
}

// newRidgeInverse returns (XᵀX + ridge·I)⁻¹ for the selected rows as a
// dense p×p matrix (row-major [][]), or nil on failure.
func newRidgeInverse(rows [][]float64, sel []int, p int, ridge float64) [][]float64 {
	m := make([][]float64, p)
	for i := range m {
		m[i] = make([]float64, p)
		m[i][i] = ridge
	}
	for _, id := range sel {
		r := rows[id]
		for a := 0; a < p; a++ {
			if r[a] == 0 {
				continue
			}
			for b := 0; b < p; b++ {
				m[a][b] += r[a] * r[b]
			}
		}
	}
	// Gauss-Jordan inversion (p is small: the model dimension).
	inv := make([][]float64, p)
	for i := range inv {
		inv[i] = make([]float64, p)
		inv[i][i] = 1
	}
	for col := 0; col < p; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < p; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if m[piv][col] == 0 {
			return nil
		}
		m[col], m[piv] = m[piv], m[col]
		inv[col], inv[piv] = inv[piv], inv[col]
		d := m[col][col]
		for j := 0; j < p; j++ {
			m[col][j] /= d
			inv[col][j] /= d
		}
		for r := 0; r < p; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < p; j++ {
				m[r][j] -= f * m[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	return inv
}

// quadForm returns xᵀ·M·y for a dense symmetric M.
func quadForm(m [][]float64, x, y []float64) float64 {
	var s float64
	for i := range x {
		if x[i] == 0 {
			continue
		}
		row := m[i]
		var t float64
		for j := range y {
			t += row[j] * y[j]
		}
		s += x[i] * t
	}
	return s
}

// shermanMorrison updates minv ← (M ± xxᵀ)⁻¹ in place given minv = M⁻¹.
func shermanMorrison(minv [][]float64, x []float64, sign float64) {
	p := len(x)
	mx := make([]float64, p)
	for i := 0; i < p; i++ {
		var s float64
		for j := 0; j < p; j++ {
			s += minv[i][j] * x[j]
		}
		mx[i] = s
	}
	var denom float64 = 1
	for i := 0; i < p; i++ {
		denom += sign * x[i] * mx[i]
	}
	f := sign / denom
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			minv[i][j] -= f * mx[i] * mx[j]
		}
	}
}

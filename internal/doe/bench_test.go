package doe

import (
	"testing"

	"repro/internal/rsm"
)

func quadRowBench(x []float64) []float64 {
	k := len(x)
	row := make([]float64, 0, 1+2*k+k*(k-1)/2)
	row = append(row, 1)
	row = append(row, x...)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			row = append(row, x[i]*x[j])
		}
	}
	return row
}

func BenchmarkCentralComposite6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CentralComposite(6, CCC, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatinHypercubeMaximin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LatinHypercube(4, 30, 1, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDOptimalFedorov(b *testing.B) {
	cands, err := FullFactorial(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DOptimal(cands, 27, quadRowBench, int64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// lattice5x4 is the selection problem of an adaptive build on
// StandardProblem: the k=4 five-level candidate lattice (625 points) and
// the full-quadratic basis (p=15).
func lattice5x4(b *testing.B) (*Design, func([]float64) []float64) {
	cands, err := CandidateLattice(4, 5)
	if err != nil {
		b.Fatal(err)
	}
	return cands, rsm.FullQuadratic(4).Row
}

// BenchmarkDOptimalLattice5x4 is an adaptive build's round-0 selection:
// 17 of 625 runs with 4 exchange passes.
func BenchmarkDOptimalLattice5x4(b *testing.B) {
	cands, row := lattice5x4(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DOptimal(cands, 17, row, int64(i), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAugmentDOptimalLattice5x4 is one augmentation round of an
// adaptive build: +4 runs on the 17-run start plus two centre replicates.
func BenchmarkAugmentDOptimalLattice5x4(b *testing.B) {
	cands, row := lattice5x4(b)
	start, err := DOptimal(cands, 17, row, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	base, err := start.Append(&Design{Runs: [][]float64{make([]float64, 4), make([]float64, 4)}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AugmentDOptimal(base, cands, 4, row, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlackettBurman24(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PlackettBurman(24, 23); err != nil {
			b.Fatal(err)
		}
	}
}

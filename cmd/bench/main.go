// Command bench is the benchmark-regression harness (DESIGN.md §10): it
// measures the repository's hot paths with testing.Benchmark, derives the
// paper-level speedup ratios (fast engine vs reference engine, RSM
// prediction vs simulation), writes the whole report as BENCH_<n>.json,
// and — when given a committed baseline — fails with a non-zero exit if
// any benchmark regressed past the tolerance band.
//
//	go run ./cmd/bench -out BENCH_10.json -baseline bench_baseline.json -tolerance 0.25
//
// Comparisons use calibration-normalized time (see internal/benchkit), so
// a baseline recorded on one machine remains meaningful on another. Under
// the race detector every measurement is a different program; the harness
// still writes a report but skips the baseline comparison. -quick drops
// the slow fleet and sustained-QPS benchmarks for CI smoke runs (-serve
// keeps sustained-QPS even under -quick); the baseline comparison simply
// skips metrics the quick report does not carry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/benchkit"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

// refHorizon keeps the Newton-Raphson reference engine's share of the
// wall clock small; its ns/op is rescaled to a full simulated second
// before the fast-vs-reference ratio is formed.
const refHorizon = 0.1

var (
	sinkResult  *sim.Result
	sinkFloat   float64
	sinkMatrix  *la.Matrix
	sinkString  string
	sinkPredict []float64
)

func main() {
	out := flag.String("out", "BENCH_10.json", "report output path")
	baseline := flag.String("baseline", "", "baseline report to compare against (empty: no comparison)")
	tolerance := flag.Float64("tolerance", 0.25, "fractional regression tolerance (0.25 = +25%)")
	quick := flag.Bool("quick", false, "skip the slow fleet and sustained-QPS benchmarks (CI smoke mode)")
	serve := flag.Bool("serve", false, "keep the sustained-QPS serving benchmark even under -quick")
	flag.Parse()

	if err := run(*out, *baseline, *tolerance, *quick, *serve); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(out, baseline string, tolerance float64, quick, serve bool) error {
	r := benchkit.NewReport()
	fmt.Printf("calibration: %.0f ns/op\n", r.CalibrationNs)

	d := sim.DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}

	// --- simulation engines -------------------------------------------------
	fastCfg := sim.Config{Horizon: 1, Source: src}
	fast := measure(r, "sim/RunFast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunFast(d, fastCfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkResult = res
		}
	})

	dTuned := d
	tc := tuner.DefaultConfig()
	tc.Interval = 0.2
	dTuned.Tuner = &tc
	measure(r, "sim/RunFastTuned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunFast(dTuned, fastCfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkResult = res
		}
	})

	refCfg := sim.Config{Horizon: refHorizon, Source: src}
	ref := measure(r, "sim/RunReference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sim.RunReference(d, refCfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkResult = res
		}
	})

	// Both rescaled to ns per simulated second before forming the ratio.
	if fastNs := float64(fast.NsPerOp()); fastNs > 0 {
		r.SetSpeedup("fast_vs_reference", float64(ref.NsPerOp())/refHorizon/fastNs)
	}

	// --- batch engine vs sequential fast -----------------------------------
	// The tentpole workload: K tuned design points sharing one harvester
	// (so they land in one model group) under a stepped excitation that
	// forces retunes, stepped in lockstep by RunBatch vs one by one with
	// RunFast. batch_Kv1 is the whole-build wall-time ratio.
	const batchLanes = 16
	bbase := d
	bbase.InitialStoreV = 3.5
	btc := tuner.DefaultConfig()
	btc.Interval = 1
	btc.EstimatorWin = 0.5
	btc.ActuatorSpeed = 2e-3
	bbase.Tuner = &btc
	stepped, err := vibration.NewSteppedSine(0.6, []vibration.FreqStep{
		{At: 0, Freq: 70}, {At: 4, Freq: 50}, {At: 8, Freq: 70},
	})
	if err != nil {
		return fmt.Errorf("building stepped source: %w", err)
	}
	bcfg := sim.Config{Horizon: 12, Source: stepped}
	designs := batchVariants(bbase, batchLanes)
	seq := measure(r, "sim/RunFastSeq16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bd := range designs {
				res, err := sim.RunFast(bd, bcfg)
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = res
			}
		}
	})
	batch := measure(r, "sim/RunBatch16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, err := sim.RunBatch(designs, bcfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkResult = results[0]
		}
	})
	if batchNs := float64(batch.NsPerOp()); batchNs > 0 {
		r.SetSpeedup("batch_Kv1", float64(seq.NsPerOp())/batchNs)
	}

	// --- linear-algebra kernels --------------------------------------------
	ew := la.NewExpmWorkspace(5)
	ea := la.NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			ea.Set(i, j, 0.01*float64((i*5+j)%7-3))
		}
	}
	measure(r, "la/ExpmWorkspace5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := ew.Compute(ea)
			if err != nil {
				b.Fatal(err)
			}
			sinkMatrix = m
		}
	})

	zw := la.NewZOHWorkspace(3, 2)
	za := la.NewMatrixFrom(3, 3, []float64{0, 1, 0, -1.6e3 / 0.02, -3, -210, 0, 4200, -5.2e6})
	zb := la.NewMatrixFrom(3, 2, []float64{0, 0, -1, 0, 0, 0})
	measure(r, "la/ZOHWorkspace3x2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ad, _, err := zw.Discretize(za, zb, 1e-3)
			if err != nil {
				b.Fatal(err)
			}
			sinkMatrix = ad
		}
	})

	// --- cache key fingerprinting ------------------------------------------
	measure(r, "simcache/Fingerprint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key, err := simcache.Fingerprint("fast", d, fastCfg)
			if err != nil {
				b.Fatal(err)
			}
			sinkString = key
		}
	})

	// --- RSM prediction vs simulation --------------------------------------
	// Fit the standard four-factor problem once (a face-centered composite,
	// the paper's workhorse design), then measure batch prediction over a
	// coded grid. The rsm_vs_sim ratio compares the cost of answering one
	// design point from the fitted surface against simulating it.
	saved, err := fitSurfaces()
	if err != nil {
		return fmt.Errorf("fitting surfaces for rsm benchmark: %w", err)
	}
	grid := codedGrid(4, 3) // 3^4 = 81 points
	pred := measure(r, "rsm/PredictBatch81", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ys, err := saved.PredictBatch(core.RespHarvestedPower, grid)
			if err != nil {
				b.Fatal(err)
			}
			sinkPredict = ys
		}
	})
	if perPoint := float64(pred.NsPerOp()) / float64(len(grid)); perPoint > 0 {
		r.SetSpeedup("rsm_vs_sim", float64(fast.NsPerOp())/perPoint)
	}

	// --- adaptive vs fixed DoE builds (see adaptive.go) ---------------------
	// Cheap enough to keep in quick mode: it is the fewer-sims-per-model
	// gate of the adaptive strategy.
	if err := benchAdaptiveSavings(r); err != nil {
		return err
	}

	// --- sustained-QPS serving (see serveload.go) ---------------------------
	// The overload-resilience gate. A two-second open-loop run is more than
	// CI smoke wants, so -quick skips it unless -serve keeps it explicitly.
	if quick && !serve {
		fmt.Println("quick mode: skipping sustained-QPS benchmark (-serve keeps it)")
	} else if err := benchSustainedQPS(r); err != nil {
		return err
	}

	// --- distributed fleet scaling (see cluster.go) -------------------------
	if quick {
		fmt.Println("quick mode: skipping fleet benchmarks")
	} else if err := benchClusterScaling(r); err != nil {
		return err
	}

	for name, m := range r.Benchmarks {
		fmt.Printf("%-24s %12.0f ns/op %8.0f allocs/op %10.0f B/op\n",
			name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
	}
	for name, v := range r.Speedups {
		fmt.Printf("speedup %-18s %.1fx\n", name, v)
	}

	if err := r.WriteFile(out); err != nil {
		return err
	}
	fmt.Println("wrote", out)

	if baseline == "" {
		return nil
	}
	if raceEnabled {
		fmt.Println("race detector active: skipping baseline comparison")
		return nil
	}
	base, err := benchkit.Load(baseline)
	if err != nil {
		return err
	}
	regs := benchkit.Compare(base, r, tolerance)
	if len(regs) == 0 {
		fmt.Printf("no regressions vs %s (tolerance %.0f%%)\n", baseline, tolerance*100)
		return nil
	}
	for _, reg := range regs {
		fmt.Fprintln(os.Stderr, "REGRESSION:", reg)
	}
	return fmt.Errorf("%d benchmark(s) regressed past the %.0f%% band", len(regs), tolerance*100)
}

// measure runs one benchmark, records it in the report, and returns the
// raw result for derived ratios.
func measure(r *benchkit.Report, name string, fn func(*testing.B)) testing.BenchmarkResult {
	br := testing.Benchmark(fn)
	r.Add(name, br)
	return br
}

// batchVariants derives k design points from base that differ only on the
// slow side (reporting period, threshold, initial charge) — the shape of a
// real DoE sweep over node parameters: every lane shares the harvester's
// model group while tracing a distinct trajectory. Initial charge stays
// above the tuner's MinStoreV so tuning is live in every lane.
func batchVariants(base sim.Design, k int) []sim.Design {
	designs := make([]sim.Design, k)
	for i := range designs {
		bd := base
		bd.Node.Period = base.Node.Period + 0.5*float64(i)
		bd.Policy = node.ThresholdPolicy{VThreshold: 3.0 + 0.05*float64(i%3)}
		bd.InitialStoreV = base.InitialStoreV - 0.05*float64(i%2)
		designs[i] = bd
	}
	return designs
}

// fitSurfaces builds the saved response surfaces the prediction benchmark
// queries: the standard problem on a face-centered composite design.
func fitSurfaces() (*core.SavedSurfaces, error) {
	p := core.StandardProblem(0.6, 1)
	design, err := core.NamedDesign("ccf", len(p.Factors), 0, 1)
	if err != nil {
		return nil, err
	}
	res, err := core.Build(context.Background(), core.BuildSpec{Problem: p, Design: design, Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Surfaces.Save(design.Name, design.N()), nil
}

// codedGrid returns the full factorial of levels per factor over the coded
// cube [-1, 1]^k.
func codedGrid(k, levels int) [][]float64 {
	n := 1
	for i := 0; i < k; i++ {
		n *= levels
	}
	pts := make([][]float64, n)
	for i := range pts {
		pt := make([]float64, k)
		rem := i
		for j := 0; j < k; j++ {
			pt[j] = -1 + 2*float64(rem%levels)/float64(levels-1)
			rem /= levels
		}
		pts[i] = pt
	}
	return pts
}

package simcache_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/rsm"
	"repro/internal/simcache"
)

// buildSurfaces fits one small surface set over the standard problem at a
// short horizon — the model behind the repeated-validation workload.
func buildSurfaces(b *testing.B, p *core.Problem) *core.Surfaces {
	b.Helper()
	design, err := core.NamedDesign("ccf", len(p.Factors), 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(len(p.Factors)))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSimCacheRepeatedValidate times the repeated-point workload from
// the acceptance criteria: the same seeded validation run over and over,
// once against the raw simulator and once through the cache. The cached
// run must reproduce the direct report byte for byte, and a paired
// wall-clock measurement must show at least the promised 5× improvement.
func BenchmarkSimCacheRepeatedValidate(b *testing.B) {
	const n, seed = 4, 42
	p := core.StandardProblem(0.6, 1)
	p.Runner = simcache.Direct{}
	s := buildSurfaces(b, p)

	ref, err := s.Validate(context.Background(), n, seed)
	if err != nil {
		b.Fatal(err)
	}
	want, _ := json.Marshal(ref.Rows)

	b.Run("direct", func(b *testing.B) {
		p.Runner = simcache.Direct{}
		for i := 0; i < b.N; i++ {
			if _, err := s.Validate(context.Background(), n, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := simcache.New(simcache.Options{})
		p.Runner = cache
		rep, err := s.Validate(context.Background(), n, seed) // warm the cache, check the answer
		if err != nil {
			b.Fatal(err)
		}
		if got, _ := json.Marshal(rep.Rows); !bytes.Equal(got, want) {
			b.Fatalf("cached report differs from direct:\n%s\n%s", got, want)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Validate(context.Background(), n, seed); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := cache.Stats(); st.Hits == 0 {
			b.Fatal("cached run never hit the cache")
		}
	})

	// Paired wall-clock check: one more direct pass against one more warm
	// cached pass on the same machine, same moment.
	p.Runner = simcache.Direct{}
	t0 := time.Now()
	if _, err := s.Validate(context.Background(), n, seed); err != nil {
		b.Fatal(err)
	}
	direct := time.Since(t0)
	cache := simcache.New(simcache.Options{})
	p.Runner = cache
	if _, err := s.Validate(context.Background(), n, seed); err != nil { // warm
		b.Fatal(err)
	}
	t1 := time.Now()
	rep, err := s.Validate(context.Background(), n, seed)
	if err != nil {
		b.Fatal(err)
	}
	cached := time.Since(t1)
	if got, _ := json.Marshal(rep.Rows); !bytes.Equal(got, want) {
		b.Fatalf("cached report differs from direct:\n%s\n%s", got, want)
	}
	ratio := float64(direct) / float64(cached)
	b.ReportMetric(ratio, "speedup_x")
	if ratio < 5 {
		b.Errorf("cache speedup %.1f× on the repeated-point workload, want ≥ 5× (direct %v, cached %v)", ratio, direct, cached)
	}
}

// BenchmarkSimCacheOptimizerBaseline times a classical-baseline run — a
// genetic algorithm calling the simulator directly — with the objective
// snapped to a coarse lattice so revisited designs become cache hits. The
// cached optimizer must land on exactly the same optimum.
func BenchmarkSimCacheOptimizerBaseline(b *testing.B) {
	p := core.StandardProblem(0.6, 1)
	bounds := opt.NewBounds(len(p.Factors))
	var objErr error
	objective := func(x []float64) float64 {
		resp, err := p.ResponsesAt(context.Background(), x)
		if err != nil {
			objErr = err
			return 0
		}
		return -resp[core.RespPackets]
	}
	quant, err := opt.Quantized(objective, bounds, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B) float64 {
		r, err := opt.GeneticAlgorithm(quant, bounds, opt.GAConfig{Pop: 10, Gens: 4, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		if objErr != nil {
			b.Fatal(objErr)
		}
		return r.F
	}

	var fDirect, fCached float64
	b.Run("direct", func(b *testing.B) {
		p.Runner = simcache.Direct{}
		for i := 0; i < b.N; i++ {
			fDirect = run(b)
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := simcache.New(simcache.Options{Capacity: 4096})
		p.Runner = cache
		fCached = run(b) // warm: the seeded GA revisits exactly these points
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fCached = run(b)
		}
		b.StopTimer()
		if st := cache.Stats(); st.Hits == 0 {
			b.Fatal("optimizer reruns never hit the cache")
		}
	})
	if fDirect != fCached {
		b.Fatalf("optimizer diverged under caching: %v vs %v", fDirect, fCached)
	}
}

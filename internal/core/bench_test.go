package core

import (
	"context"
	"testing"

	"repro/internal/rsm"
	"repro/internal/simcache"
)

// benchBuildCCF times fixed CCF builds of the standard problem at the
// paper's 60 s horizon on two workers. fresh reports whether each op gets
// an empty simulation cache (every point simulated) or shares one filled
// before the timer starts (every point a cache hit).
func benchBuildCCF(b *testing.B, fresh bool) {
	design, err := NamedDesign("ccf", 4, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	filled := simcache.New(simcache.Options{})
	build := func(runner simcache.Runner) {
		p := StandardProblem(0.6, 60)
		p.Runner = runner
		if _, err := Build(ctx, BuildSpec{Problem: p, Design: design, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
	if !fresh {
		build(filled)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh {
			build(simcache.New(simcache.Options{}))
		} else {
			build(filled)
		}
	}
}

// BenchmarkBuildCCFCold is the engine-bound build: 27 runs on 25 unique
// points, all simulated.
func BenchmarkBuildCCFCold(b *testing.B) { benchBuildCCF(b, true) }

// BenchmarkBuildCCFWarm is the overhead-bound build: every point answered
// by the cache, so resolution, lookups and fitting carry the time.
func BenchmarkBuildCCFWarm(b *testing.B) { benchBuildCCF(b, false) }

// BenchmarkBuildSurfaces is the fitting stage of a fixed build alone: six
// responses on the CCF k=4 design.
func BenchmarkBuildSurfaces(b *testing.B) {
	p, ds := surfacesDataset(b)
	model := rsm.FullQuadratic(len(p.Factors))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BuildSurfaces(ds, model); err != nil {
			b.Fatal(err)
		}
	}
}

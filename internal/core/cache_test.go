package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// slowProblem returns a quick problem driven by an artificially slow named
// engine backed by its own fresh cache, so tests control hit/miss behaviour
// without interference from the shared DefaultRunner.
func slowProblem(delay time.Duration) (*Problem, *simcache.Cache) {
	p := quickProblem()
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(delay)
		return sim.RunFast(d, cfg)
	}
	p.EngineName = "test-slow"
	c := simcache.New(simcache.Options{Capacity: 64})
	p.Runner = c
	return p, c
}

func TestDefaultRunnerIsSharedCache(t *testing.T) {
	if _, ok := DefaultRunner.(*simcache.Cache); !ok {
		t.Fatalf("DefaultRunner is %T, want *simcache.Cache", DefaultRunner)
	}
}

// TestSimWorkAccountingUnderCacheHits is the guard the ISSUE asks for:
// cache hits must not inflate the reported parallel speedup. SimWork sums
// wall time per run, so a fully-cached design's SimWork collapses along
// with SimTime, and Speedup stays bounded by the worker count instead of
// reporting a fantasy figure.
func TestSimWorkAccountingUnderCacheHits(t *testing.T) {
	const workers = 2
	p, c := slowProblem(20 * time.Millisecond)
	// Replicated center points plus corners — replicates dedup within the
	// first pass, and the second pass is answered entirely from cache.
	design := &doe.Design{Name: "manual", Runs: [][]float64{
		{0, 0, 0}, {0, 0, 0}, {0, 0, 0},
		{1, 1, 1}, {-1, -1, -1},
	}}

	ds1, err := p.RunDesign(context.Background(), design, workers)
	if err != nil {
		t.Fatal(err)
	}
	if ds1.SimWork <= 0 || ds1.SimTime <= 0 {
		t.Fatalf("first pass lost its accounting: work %v time %v", ds1.SimWork, ds1.SimTime)
	}
	st := c.Stats()
	if st.Misses != 3 {
		t.Fatalf("first pass executed %d distinct points, want 3", st.Misses)
	}
	if st.Hits+st.DedupHits != 2 {
		t.Fatalf("replicates not shared: %d hits + %d dedup, want 2 total", st.Hits, st.DedupHits)
	}

	ds2, err := p.RunDesign(context.Background(), design, workers)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != 3 {
		t.Fatal("second pass must not execute any simulation")
	}
	// All five runs were instant hits: their summed wall time must be far
	// below one real simulation, and the ratio SimWork/SimTime must not be
	// inflated past what the pool can physically achieve.
	if ds2.SimWork >= 20*time.Millisecond {
		t.Fatalf("cached pass reports %v of sim work, want ≪ one run (20ms)", ds2.SimWork)
	}
	if sp := ds2.Speedup(); sp > workers+1 {
		t.Fatalf("cache hits inflated the parallel speedup to %.1f× with %d workers", sp, workers)
	}
	// Identical numbers out of the cache.
	for _, id := range p.Responses {
		for i := range ds1.Y[id] {
			if ds1.Y[id][i] != ds2.Y[id][i] {
				t.Fatalf("%s run %d: %v vs %v", id, i, ds1.Y[id][i], ds2.Y[id][i])
			}
		}
	}
}

// TestValidateTwiceIsCachedAndIdentical covers the repeated-point workload
// of the acceptance criteria at unit-test scale: a second Validate with the
// same seed re-simulates nothing and reproduces the report byte for byte.
func TestValidateTwiceIsCachedAndIdentical(t *testing.T) {
	p, c := slowProblem(0)
	design, err := doe.CentralComposite(3, doe.CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := p.RunDesign(context.Background(), design, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.BuildSurfaces(ds, rsm.FullQuadratic(3))
	if err != nil {
		t.Fatal(err)
	}
	misses := c.Stats().Misses
	rep1, err := s.Validate(context.Background(), 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	missesAfter := c.Stats().Misses
	if missesAfter <= misses {
		t.Fatal("first validation must simulate fresh points")
	}
	rep2, err := s.Validate(context.Background(), 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != missesAfter {
		t.Fatal("repeat validation must be answered entirely from cache")
	}
	b1, _ := json.Marshal(rep1.Rows)
	b2, _ := json.Marshal(rep2.Rows)
	if string(b1) != string(b2) {
		t.Fatalf("cached validation differs:\n%s\n%s", b1, b2)
	}
}

// TestCustomEngineWithoutNameBypassesCache pins the bypass rule: a closure
// engine with no EngineName cannot be content-addressed, so every call must
// reach it (the serve tests' blocking problems depend on this).
func TestCustomEngineWithoutNameBypassesCache(t *testing.T) {
	p := quickProblem()
	calls := 0
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		calls++
		return sim.RunFast(d, cfg)
	}
	c := simcache.New(simcache.Options{})
	p.Runner = c
	for i := 0; i < 2; i++ {
		if _, err := p.ResponsesAt(context.Background(), []float64{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Fatalf("unnamed custom engine ran %d times, want 2 (no caching)", calls)
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Bypass != 0 {
		t.Fatalf("unnamed engine must not touch the cache at all: %+v", st)
	}
}

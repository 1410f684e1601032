package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

// passRunner executes the engine directly and counts the runs it sees. It
// has no cache tier, so design runs through it take the per-point path.
type passRunner struct{ runs *atomic.Int64 }

func (r passRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	if r.runs != nil {
		r.runs.Add(1)
	}
	return fn(d, cfg)
}

// batchProblem is quickProblem with its own private cache, so tests see
// exactly the peel/publish traffic they cause.
func batchProblem() *Problem {
	p := quickProblem()
	p.Runner = simcache.New(simcache.Options{})
	return p
}

// sameColumns fails unless two datasets hold bit-identical responses.
func sameColumns(t *testing.T, want, got *Dataset) {
	t.Helper()
	for id, col := range want.Y {
		gcol := got.Y[id]
		if len(gcol) != len(col) {
			t.Fatalf("response %q: %d rows vs %d", id, len(gcol), len(col))
		}
		for i := range col {
			if math.Float64bits(col[i]) != math.Float64bits(gcol[i]) {
				t.Fatalf("response %q run %d: %v != %v", id, i, gcol[i], col[i])
			}
		}
	}
}

func TestEngineBatchMatchesFastBitwise(t *testing.T) {
	d, err := doe.CentralComposite(3, doe.CCF, 1)
	if err != nil {
		t.Fatal(err)
	}

	// The per-point path: every run through an opaque runner on its own.
	perPoint := quickProblem()
	perPoint.Runner = passRunner{}
	want, err := perPoint.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want.Batch != nil {
		t.Fatalf("the per-point path must not carry batch stats, got %+v", want.Batch)
	}

	// The default fast engine behind a cache runs the lockstep executor.
	bp := batchProblem()
	got, err := bp.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameColumns(t, want, got)

	bs := got.Batch
	if bs == nil {
		t.Fatal("the lockstep executor must report batch stats")
	}
	if bs.Points != d.N() {
		t.Fatalf("Points = %d, want %d", bs.Points, d.N())
	}
	if bs.Peeled != 0 {
		t.Fatalf("fresh cache must peel nothing, got %d", bs.Peeled)
	}
	// CCF(3) with one centre point has no duplicate runs: every point is a
	// lane, and all share one excitation and one fast trajectory per chunk.
	if bs.Lanes != d.N() || bs.Chunks == 0 || bs.Trajectories != bs.Chunks {
		t.Fatalf("want %d lanes on one trajectory per chunk, got %+v", d.N(), bs)
	}
}

func TestBatchAllLanesCachedShortCircuits(t *testing.T) {
	d, err := doe.CentralComposite(3, doe.CCF, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := batchProblem()

	first, err := p.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if first.Batch.Lanes == 0 {
		t.Fatalf("first build must batch lanes, got %+v", first.Batch)
	}
	unique := first.Batch.Lanes + first.Batch.Peeled

	second, err := p.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	bs := second.Batch
	if bs == nil {
		t.Fatal("second build must still report batch stats")
	}
	if bs.Peeled != unique {
		t.Fatalf("second build must peel every unique point: Peeled = %d, want %d", bs.Peeled, unique)
	}
	if bs.Chunks != 0 || bs.Lanes != 0 {
		t.Fatalf("all-cached batch must short-circuit without chunks, got %+v", bs)
	}
	for id, col := range first.Y {
		for i := range col {
			if math.Float64bits(col[i]) != math.Float64bits(second.Y[id][i]) {
				t.Fatalf("response %q run %d: cached %v != batched %v", id, i, second.Y[id][i], col[i])
			}
		}
	}
}

// TestPrewarmBatchCustomEngineBypasses: a custom engine is not sim.RunFast,
// so lanes would change its results; its design runs take the per-point
// path and every run reaches the engine.
func TestPrewarmBatchCustomEngineBypasses(t *testing.T) {
	d, err := doe.TwoLevelFactorial(3)
	if err != nil {
		t.Fatal(err)
	}
	p := batchProblem()
	var calls atomic.Int64
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return sim.RunFast(d, cfg)
	}
	ds, err := p.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Batch != nil {
		t.Fatalf("custom engine must skip the lockstep executor, got %+v", ds.Batch)
	}
	if n := calls.Load(); n != int64(d.N()) {
		t.Fatalf("custom engine ran %d times, want %d", n, d.N())
	}
}

// TestPrewarmBatchOpaqueRunner: a runner without a cache tier (a fault
// injector, simcache.Direct, a custom runner) keeps the per-point path, so
// it sees every run and no lane runs; its results are bit-identical to the
// lockstep executor's.
func TestPrewarmBatchOpaqueRunner(t *testing.T) {
	d, err := doe.TwoLevelFactorial(3)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	p := quickProblem()
	p.Runner = passRunner{runs: &runs}
	ds, err := p.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Batch != nil {
		t.Fatalf("an opaque runner runs no lanes, got %+v", ds.Batch)
	}
	if n := runs.Load(); n != int64(d.N()) {
		t.Fatalf("opaque runner saw %d runs, want %d", n, d.N())
	}

	want, err := batchProblem().RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want.Batch == nil || want.Batch.Lanes != d.N() {
		t.Fatalf("lockstep reference ran no lanes: %+v", want.Batch)
	}
	sameColumns(t, want, ds)
}

// TestLockstepResolvesEachRunOnce pins resolve-once: a design run calls
// Build exactly once per run, cold or fully cached, and duplicate runs
// share one lane.
func TestLockstepResolvesEachRunOnce(t *testing.T) {
	p := batchProblem()
	var builds atomic.Int64
	build := p.Build
	p.Build = func(nat []float64) (Scenario, error) {
		builds.Add(1)
		return build(nat)
	}
	design := &doe.Design{Name: "manual", Runs: [][]float64{
		{0, 0, 0}, {0, 0, 0}, {1, -1, 1}, {0, 0, 0}, {-1, 1, -1},
	}}
	for pass, wantLanes := range []int{3, 0} {
		builds.Store(0)
		ds, err := p.RunDesign(context.Background(), design, 2)
		if err != nil {
			t.Fatal(err)
		}
		if n := builds.Load(); n != int64(design.N()) {
			t.Fatalf("pass %d: Build called %d times for %d runs", pass, n, design.N())
		}
		if ds.Batch.Lanes != wantLanes || ds.Batch.Lanes+ds.Batch.Peeled != 3 {
			t.Fatalf("pass %d: want %d lanes of 3 unique points, got %+v", pass, wantLanes, ds.Batch)
		}
	}
}

// TestLockstepUnsettledRunsTakePerPointPath: a run the executor cannot
// settle — here a transient Build failure during resolution, and a design
// that fails validation inside its lane — goes through the per-point path,
// which retries the first to success and reports the second with its run
// index.
func TestLockstepUnsettledRunsTakePerPointPath(t *testing.T) {
	d, err := doe.TwoLevelFactorial(3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batchProblem().RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}

	p := batchProblem()
	var calls atomic.Int64
	build := p.Build
	p.Build = func(nat []float64) (Scenario, error) {
		if calls.Add(1) == 3 {
			return Scenario{}, transientErr{}
		}
		return build(nat)
	}
	got, err := p.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batch.Lanes != d.N()-1 {
		t.Fatalf("want %d lanes beside the pending run, got %+v", d.N()-1, got.Batch)
	}
	sameColumns(t, want, got)

	bad := batchProblem()
	build = bad.Build
	bad.Build = func(nat []float64) (Scenario, error) {
		sc, err := build(nat)
		if nat[0] == bad.Factors[0].Max && nat[1] == bad.Factors[1].Max && nat[2] == bad.Factors[2].Max {
			sc.Design.Policy = nil // fails sim.Design.Validate inside its lane
		}
		return sc, err
	}
	corner := -1
	for i, run := range d.Runs {
		if run[0] == 1 && run[1] == 1 && run[2] == 1 {
			corner = i
		}
	}
	_, err = bad.RunDesign(context.Background(), d, 2)
	if err == nil {
		t.Fatal("an invalid design must fail the run")
	}
	if want := fmt.Sprintf("core: run %d failed", corner); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("err = %v, want it to name run %d", err, corner)
	}
}

// TestPlanChunksBalancesWorkers pins the chunk plan: CCF k=4's three
// excitation groups (9/9/7 untuned lanes) split into chunks whose
// longest-first schedule on two workers carries 13 and 12 lanes; groups
// never exceed maxBatchLanes; and tuned lanes are costed as their own
// trajectories.
func TestPlanChunksBalancesWorkers(t *testing.T) {
	base := sim.DefaultDesign()
	f0 := base.Harv.ResonantFreq(base.Harv.GapMax)
	var points []lockstepPoint
	add := func(n int, freq float64, tuned bool) {
		for i := 0; i < n; i++ {
			d := base
			d.Node.Period = 2 + float64(i)
			if tuned {
				tc := tuner.DefaultConfig()
				d.Tuner = &tc
			}
			points = append(points, lockstepPoint{d: d, cfg: sim.Config{Horizon: 60, Source: vibration.Sine{Amplitude: 0.6, Freq: freq}}})
		}
	}
	add(9, f0-0.5, false)
	add(9, f0, false)
	add(7, f0+0.5, false)
	all := make([]int, len(points))
	for i := range all {
		all[i] = i
	}
	chunks := planChunks(points, all, 2)
	loads := make([]int, 2)
	costs := make([]float64, 2)
	for _, c := range chunks {
		w := 0
		if costs[1] < costs[0] {
			w = 1
		}
		costs[w] += c.cost
		loads[w] += len(c.pts)
	}
	if loads[0]+loads[1] != 25 || max(loads[0], loads[1]) != 13 {
		t.Fatalf("worker lanes %v, want 13/12 (chunks %+v)", loads, chunks)
	}

	points = points[:0]
	add(40, f0, false)
	chunks = planChunks(points, all[:0:0], 1)
	if chunks != nil {
		t.Fatalf("no misses must plan no chunks, got %+v", chunks)
	}
	all = make([]int, 40)
	for i := range all {
		all[i] = i
	}
	chunks = planChunks(points, all, 1)
	lanes := 0
	for _, c := range chunks {
		if len(c.pts) > maxBatchLanes {
			t.Fatalf("chunk of %d lanes exceeds the %d-lane cap", len(c.pts), maxBatchLanes)
		}
		lanes += len(c.pts)
	}
	if lanes != 40 || len(chunks) != 3 {
		t.Fatalf("40 lanes on one worker: want 3 chunks, got %d chunks of %d lanes", len(chunks), lanes)
	}

	points = points[:0]
	add(4, f0, true)
	chunks = planChunks(points, all[:4], 1)
	if len(chunks) != 1 || math.Abs(chunks[0].cost-4*(1+trajectoryCost)) > 1e-9 {
		t.Fatalf("4 tuned lanes: want one chunk costing %v, got %+v", 4*(1+trajectoryCost), chunks)
	}
}

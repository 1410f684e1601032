package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/doe"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// passRunner executes the engine directly with no cache capabilities, so
// the batch prepass can neither peel nor publish through it.
type passRunner struct{}

func (passRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	return fn(d, cfg)
}

// batchProblem is quickProblem wired for the batch engine with its own
// private cache, so tests see exactly the peel/publish traffic they cause.
func batchProblem() *Problem {
	p := quickProblem()
	p.EngineName = EngineBatch
	p.Runner = simcache.New(simcache.Options{})
	return p
}

func TestEngineBatchMatchesFastBitwise(t *testing.T) {
	d, err := doe.CentralComposite(3, doe.CCF, 1)
	if err != nil {
		t.Fatal(err)
	}

	fast := quickProblem()
	fast.Runner = simcache.New(simcache.Options{})
	want, err := fast.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want.Batch != nil {
		t.Fatalf("fast engine must not carry batch stats, got %+v", want.Batch)
	}

	bp := batchProblem()
	got, err := bp.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id, col := range want.Y {
		bcol := got.Y[id]
		if len(bcol) != len(col) {
			t.Fatalf("response %q: %d rows vs %d", id, len(bcol), len(col))
		}
		for i := range col {
			if math.Float64bits(col[i]) != math.Float64bits(bcol[i]) {
				t.Fatalf("response %q run %d: batch %v != fast %v", id, i, bcol[i], col[i])
			}
		}
	}

	bs := got.Batch
	if bs == nil {
		t.Fatal("batch engine must report batch stats")
	}
	if bs.Points != d.N() {
		t.Fatalf("Points = %d, want %d", bs.Points, d.N())
	}
	if bs.Peeled != 0 {
		t.Fatalf("fresh cache must peel nothing, got %d", bs.Peeled)
	}
	if bs.Lanes == 0 || bs.Chunks == 0 {
		t.Fatalf("prepass must simulate lanes, got %+v", bs)
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

func TestPrewarmBatchCustomEngineBypasses(t *testing.T) {
	p := batchProblem()
	p.Engine = sim.RunReference
	pts := [][]float64{{0, 0, 0}, {1, -1, 0.5}}
	runp, stats := p.PrewarmBatch(context.Background(), pts, 2)
	if runp != p {
		t.Fatal("custom engine must return the problem unchanged")
	}
	if stats.Points != len(pts) || stats.Lanes != 0 || stats.Chunks != 0 || stats.Peeled != 0 {
		t.Fatalf("custom engine must skip the prepass, got %+v", stats)
	}
}

func TestPrewarmBatchOpaqueRunner(t *testing.T) {
	d, err := doe.TwoLevelFactorial(3)
	if err != nil {
		t.Fatal(err)
	}
	p := batchProblem()
	p.Runner = passRunner{}

	ds, err := p.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	bs := ds.Batch
	if bs == nil || bs.Peeled != 0 {
		t.Fatalf("opaque runner cannot peel, got %+v", bs)
	}
	if bs.Lanes == 0 {
		t.Fatalf("prepass must still batch through an opaque runner, got %+v", bs)
	}

	fast := quickProblem()
	fast.Runner = passRunner{}
	want, err := fast.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	for id, col := range want.Y {
		for i := range col {
			if math.Float64bits(col[i]) != math.Float64bits(ds.Y[id][i]) {
				t.Fatalf("response %q run %d: batch %v != fast %v", id, i, ds.Y[id][i], col[i])
			}
		}
	}
}

package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/harvester"
	"repro/internal/la"
)

// BatchStats summarizes the amortization a batch achieved: how many lanes
// ran, how many fast trajectories and distinct (harvester, rin, dt) model
// groups they shared, how many ZOH bakes were actually performed, and how
// many per-lane rebuild requests were answered by a bake another lane had
// already paid for.
type BatchStats struct {
	Lanes             int // lanes that entered the lockstep loop
	Trajectories      int // fast trajectories stepped for those lanes
	Groups            int // distinct model groups across those lanes
	Rebuilds          int // ZOH discretizations actually performed
	AmortizedRebuilds int // lane rebuilds answered by another lane's bake
}

// LaneError reports a failure of one batch lane. The surrounding batch
// keeps stepping its remaining lanes; callers route the failed design point
// through the sequential path (which reproduces the same error with full
// retry semantics).
type LaneError struct {
	Lane int // index into the designs slice passed to RunBatch
	Err  error
}

func (e *LaneError) Error() string { return fmt.Sprintf("sim: batch lane %d: %v", e.Lane, e.Err) }
func (e *LaneError) Unwrap() error { return e.Err }

// batchLane is one design point's private state inside the lockstep loop:
// its per-lane model half (baked matrices + as-if-alone counters), slow
// side, recorder, and the memoized tuner drift check — exactly the loop
// state RunFast keeps in locals, minus the fast state itself, which lives
// in the lane's trajectory.
type batchLane struct {
	index   int // position in the original designs slice
	model   fastModel
	slow    *slowSide
	rec     recorder
	res     *Result
	tunerOn bool

	lastGap  float64
	lastFres float64
}

// groupKey identifies lanes whose fast-dynamics matrices are
// interchangeable: identical harvester parameters, multiplier input
// resistance, and step size. harvester.Params is an all-float64 struct, so
// the key is comparable and exact.
type groupKey struct {
	h   harvester.Params
	rin float64
	dt  float64
}

// TrajectoryKey identifies the fast electromechanical trajectory an
// untuned design follows under one excitation: the fast state (x, v, i)
// depends only on the model group and the starting gap, never on the
// slow side (period, store, threshold). RunBatch steps the untuned lanes
// of one key as a single trajectory. The key is comparable.
type TrajectoryKey struct {
	group   groupKey
	gapBits uint64 // math.Float64bits of the starting gap
}

// Trajectory returns the trajectory key of d under cfg's step, and whether
// RunBatch may share that trajectory with other lanes: a tuned design moves
// its own gap, so it always steps alone.
func Trajectory(d Design, cfg Config) (TrajectoryKey, bool) {
	dt := cfg.DtSlow
	if dt <= 0 {
		dt = defaultDtSlow
	}
	key := TrajectoryKey{
		group:   groupKey{h: d.Harv, rin: d.Mult.InputR, dt: dt},
		gapBits: math.Float64bits(initialGap(d)),
	}
	return key, d.Tuner == nil
}

// trajectory is one fast state stepped by the lockstep loop and the lanes
// whose slow sides read it. model holds the matrices that step it: the
// first lane's, which for a shared (untuned) trajectory never change, and
// for a tuned lane's own trajectory follow that lane's rebuilds.
type trajectory struct {
	model *fastModel
	gamma float64 // EMF(v) = gamma·v, one harvester per trajectory
	lanes []*batchLane
}

// batchStepHook, when non-nil, is called for every active lane at every
// slow step; a non-nil return drops that lane. It exists solely so tests
// can force mid-run lane dropout — production never sets it.
var batchStepHook func(step int, ln *batchLane) error

// RunBatch simulates K design points in lockstep over a shared time base
// with the fast engine. Each lane's floating-point stream is exactly the
// one RunFast would execute for that design alone, so results[i] is
// bit-identical to RunFast(designs[i], cfg) — the win is architectural:
// the per-step excitation samples are evaluated once for the whole batch;
// untuned lanes with equal TrajectoryKey share one fast trajectory, stepped
// once per step and read by every lane's slow side; and lanes with
// identical (harvester, rin, dt) share one model group, so tuner-driven
// ZOH rebuilds and the gap memo are paid once per group instead of once
// per point.
//
// results has len(designs). A lane that fails — invalid design, setup
// error, or mid-run rebuild failure — drops out without disturbing the
// remaining lanes: its slot is nil and the returned error (an errors.Join
// of *LaneError values) identifies it by index.
func RunBatch(designs []Design, cfg Config) ([]*Result, error) {
	results, _, err := RunBatchStats(designs, cfg)
	return results, err
}

// RunBatchStats is RunBatch plus the batch's amortization statistics.
func RunBatchStats(designs []Design, cfg Config) ([]*Result, BatchStats, error) {
	var stats BatchStats
	if err := cfg.defaults(); err != nil {
		return nil, stats, err
	}
	start := time.Now()
	results := make([]*Result, len(designs))
	var laneErrs []error
	fail := func(i int, err error) {
		results[i] = nil
		laneErrs = append(laneErrs, &LaneError{Lane: i, Err: err})
	}

	// Lane setup: validate, build slow sides, attach each lane to its model
	// group and its trajectory. Setup failures drop the lane before the
	// loop starts.
	groups := make(map[groupKey]*modelGroup)
	shared := make(map[TrajectoryKey]*trajectory)
	trajs := make([]*trajectory, 0, len(designs))
	for i, d := range designs {
		if err := d.Validate(); err != nil {
			fail(i, err)
			continue
		}
		slow, err := newSlowSide(d)
		if err != nil {
			fail(i, err)
			continue
		}
		key, shareable := Trajectory(d, cfg)
		g := groups[key.group]
		if g == nil {
			g = newModelGroup(d.Harv, d.Mult.InputR, cfg.DtSlow)
			groups[key.group] = g
		}
		res := &Result{}
		ln := &batchLane{
			index:   i,
			model:   fastModel{g: g, shadow: &gapKeys{}},
			slow:    slow,
			rec:     recorder{cfg: cfg, d: d, res: res},
			res:     res,
			tunerOn: slow.ctrl != nil,
		}
		if err := ln.model.rebuild(slow.gap); err != nil {
			fail(i, err)
			continue
		}
		ln.lastGap, ln.lastFres = slow.gap, ln.model.fres
		results[i] = res
		stats.Lanes++
		if tr := shared[key]; shareable && tr != nil {
			tr.lanes = append(tr.lanes, ln)
			continue
		}
		tr := &trajectory{model: &ln.model, gamma: d.Harv.Gamma, lanes: []*batchLane{ln}}
		if shareable {
			shared[key] = tr
		}
		trajs = append(trajs, tr)
	}
	stats.Trajectories = len(trajs)
	stats.Groups = len(groups)

	nSteps := int(math.Ceil(cfg.Horizon / cfg.DtSlow))
	// SoA state: y0/y1/y2[j] are trajectory j's [x, v, i], kept in slices
	// parallel to trajs so the fast-dynamics kernel streams over contiguous
	// trajectories.
	y0 := make([]float64, len(trajs))
	y1 := make([]float64, len(trajs))
	y2 := make([]float64, len(trajs))
	for _, tr := range trajs {
		for _, ln := range tr.lanes {
			ln.rec.init(nSteps)
		}
	}

	// dropLane removes lane l of trajectory tr by swap-remove. Lane order
	// is free to change: lanes never read each other's state, and the
	// shared group memo's entries are deterministic regardless of which
	// lane bakes them, so compaction cannot disturb any surviving lane's
	// floating-point stream. A trajectory left without lanes is removed by
	// the caller.
	dropLane := func(tr *trajectory, l int, err error) {
		fail(tr.lanes[l].index, err)
		last := len(tr.lanes) - 1
		tr.lanes[l] = tr.lanes[last]
		tr.lanes = tr.lanes[:last]
	}
	// dropTraj removes trajectory j by swap-remove from trajs and every
	// SoA slice; the same argument makes the reordering safe.
	dropTraj := func(j int) {
		last := len(trajs) - 1
		trajs[j], y0[j], y1[j], y2[j] = trajs[last], y0[last], y1[last], y2[last]
		trajs = trajs[:last]
		y0, y1, y2 = y0[:last], y1[:last], y2[:last]
	}

	for k := 0; k < nSteps && len(trajs) > 0; k++ {
		t := float64(k) * cfg.DtSlow
		// Midpoint sampling of the excitation halves the ZOH phase error;
		// the shared time base means one sample serves every lane.
		accel := cfg.Source.Accel(t + cfg.DtSlow/2)
		excf := cfg.Source.DominantFreq(t)

		// Fast dynamics: advance maximal runs of adjacent trajectories that
		// share (group, gap bits, end-stop region) with one kernel call.
		// Equal gap bits in the same group means the baked matrices are
		// bit-identical copies of the same memo entry, so the first
		// trajectory's arrays serve the whole run.
		for j := 0; j < len(trajs); {
			m := trajs[j].model
			gapBits := math.Float64bits(m.gap)
			r := regionOf(y0[j], m.g.h.MaxDisp)
			run := j + 1
			for run < len(trajs) {
				nx := trajs[run].model
				if nx.g != m.g ||
					math.Float64bits(nx.gap) != gapBits ||
					regionOf(y0[run], m.g.h.MaxDisp) != r {
					break
				}
				run++
			}
			la.StepLanes3(&m.ad[r], &m.bd[r], accel, y0, y1, y2, j, run)
			j = run
		}

		// Slow side, per lane — the exact RunFast tail of the step, reading
		// the lane's trajectory. A drop swap-removes an unprocessed lane (or
		// trajectory) into the current slot, so the drop paths do not
		// advance their index.
		for j := 0; j < len(trajs); {
			tr := trajs[j]
			x := y0[j]
			emf := tr.gamma * y1[j]
			for l := 0; l < len(tr.lanes); {
				ln := tr.lanes[l]
				if batchStepHook != nil {
					if err := batchStepHook(k, ln); err != nil {
						dropLane(tr, l, err)
						continue
					}
				}
				gap := ln.slow.step(cfg.DtSlow, emf, excf)
				if ln.tunerOn {
					if gap != ln.lastGap {
						ln.lastGap, ln.lastFres = gap, ln.model.g.h.ResonantFreq(gap)
					}
					if math.Abs(ln.lastFres-ln.model.fres) > rebuildTolHz {
						if err := ln.model.rebuild(gap); err != nil {
							dropLane(tr, l, err)
							continue
						}
					}
				}
				ln.rec.record(t+cfg.DtSlow, ln.slow.vs, x, emf, gap)
				l++
			}
			if len(tr.lanes) == 0 {
				dropTraj(j)
				continue
			}
			j++
		}
	}

	elapsed := time.Since(start)
	for _, tr := range trajs {
		for _, ln := range tr.lanes {
			ln.res.Steps = nSteps
			ln.res.Rebuilds = ln.model.rebuilds
			ln.res.RebuildHits = ln.model.memoHits
			ln.slow.finish(ln.res, cfg.Horizon)
			ln.res.Elapsed = elapsed
		}
	}
	for _, g := range groups {
		stats.Rebuilds += g.bakes
		stats.AmortizedRebuilds += g.amortized
	}
	return results, stats, errors.Join(laneErrs...)
}

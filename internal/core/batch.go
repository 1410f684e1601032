package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// BatchStats summarizes what the lockstep executor did for one design run.
type BatchStats struct {
	Points            int `json:"points"`            // design points considered
	Peeled            int `json:"cache_peeled"`      // answered by the cache before lanes launched
	Lanes             int `json:"lanes"`             // points simulated inside batches
	Chunks            int `json:"chunks"`            // sim.RunBatch invocations
	Trajectories      int `json:"trajectories"`      // fast trajectories those lanes stepped
	Rebuilds          int `json:"rebuilds"`          // ZOH bakes actually performed
	AmortizedRebuilds int `json:"rebuild_amortized"` // lane rebuilds answered by a shared bake
}

// add accumulates another run's stats (an adaptive build's rounds).
func (b *BatchStats) add(o *BatchStats) {
	b.Points += o.Points
	b.Peeled += o.Peeled
	b.Lanes += o.Lanes
	b.Chunks += o.Chunks
	b.Trajectories += o.Trajectories
	b.Rebuilds += o.Rebuilds
	b.AmortizedRebuilds += o.AmortizedRebuilds
}

// maxBatchLanes caps one chunk's width. Wider batches lose cancellation
// granularity (a chunk is abandoned whole on timeout) and balance worse
// across workers.
const maxBatchLanes = 16

// trajectoryCost is the modelled cost of stepping one fast trajectory, in
// units of one lane's slow side: a chunk costs
// trajectoryCost·trajectories + lanes. Measured on the standard problem at
// a 60 s horizon, a trajectory (excitation sample plus state update) costs
// about 0.7 of a lane.
const trajectoryCost = 0.7

// cacheTier is the capability pair of a Runner the lockstep executor needs:
// Lookup peels points the cache already holds, Insert publishes lane
// results. *simcache.Cache implements both, as does any wrapper forwarding
// them. An opaque runner — a fault injector, simcache.Direct, a custom
// runner — implements neither, and its design runs keep the per-point
// path, so every run still passes through it.
type cacheTier interface {
	Lookup(ctx context.Context, key, engine string) (*sim.Result, bool)
	Insert(key, engine string, res *sim.Result)
}

// lockstepTier returns the runner's cache tier when the problem's design
// runs go through the lockstep executor: the default fast engine behind a
// runner with a cache tier. nil means the per-point path.
func (p *Problem) lockstepTier() cacheTier {
	if p.Engine != nil || p.engineName() != EngineFast {
		return nil
	}
	r := p.Runner
	if r == nil {
		r = DefaultRunner
	}
	tier, _ := r.(cacheTier)
	return tier
}

// lockstepPoint is one run's resolved simulation request.
type lockstepPoint struct {
	key string
	d   sim.Design
	cfg sim.Config
	err error       // a resolution error that leaves the run to the per-point path
	res *sim.Result // from the cache or a lane; nil leaves the run unsettled
}

// runLockstep simulates a design run through the lockstep executor. Every
// run is resolved once — decode, Build, config, fingerprint — and runs
// sharing a fingerprint share the first one's point. Points the cache
// holds are peeled; the rest are stepped through sim.RunBatch in chunks
// of points sharing an excitation, and their results published to the
// cache. Runs whose point settled get their responses here; the rest — a
// transient or panicking Build, an unfingerprintable request, a lane
// error, a chunk that panicked or outlived its deadline — go through the
// per-point path with its full retry, timeout and cancellation semantics.
func (r *designRun) runLockstep(workers int, tier cacheTier) *BatchStats {
	stats := &BatchStats{Points: r.d.N()}
	resolveStart := time.Now()
	points, runOf := r.resolve(workers, tier, stats)
	r.work.Add(int64(time.Since(resolveStart)))
	if r.failed() {
		return stats
	}

	var misses []int
	for i, u := range runOf {
		if u == i && points[i].res == nil {
			misses = append(misses, i)
		}
	}
	chunks := planChunks(points, misses, workers)
	stats.Chunks = len(chunks)
	r.runChunks(chunks, points, workers, tier, stats)
	if r.failed() {
		return stats
	}

	var pending []int
	for i, u := range runOf {
		if u < 0 || points[u].res == nil {
			pending = append(pending, i)
			continue
		}
		resp, err := r.p.responses(points[u].res)
		if err != nil {
			r.fail(wrapRunErr(i, runFaultStats{attempts: 1}, err))
			return stats
		}
		r.rows[i] = resp
	}
	r.runPoints(workers, pending)
	return stats
}

// resolve resolves every run. The workers resolve runs in parallel, handed
// out in run order like the per-point path's runs: a non-transient Build
// error fails the design run at once, and no Build starts after the run
// aborts. Then, in run order, each new key is looked up in the cache.
// runOf[i] is the first run sharing run i's key — the run whose point
// stands for both — or -1 for a run left to the per-point path.
func (r *designRun) resolve(workers int, tier cacheTier, stats *BatchStats) (points []lockstepPoint, runOf []int) {
	points = make([]lockstepPoint, r.d.N())
	r.each(workers, r.d.N(), func(i int) {
		d, cfg, err := r.p.guardedRequest(r.ctx, i, r.d.Runs[i])
		if err != nil && !IsTransient(err) {
			r.fail(wrapRunErr(i, runFaultStats{attempts: 1}, err))
			return
		}
		var key string
		if err == nil {
			// An unhashable request errs here; the runner bypasses its
			// cache for it on the per-point path.
			key, err = simcache.Key(EngineFast, d, cfg)
		}
		points[i] = lockstepPoint{key: key, d: d, cfg: cfg, err: err}
	})
	if r.failed() {
		return nil, nil
	}

	runOf = make([]int, r.d.N())
	byKey := make(map[string]int, r.d.N())
	for i := range points {
		pt := &points[i]
		if pt.err != nil {
			runOf[i] = -1
			continue
		}
		if u, ok := byKey[pt.key]; ok {
			runOf[i] = u
			continue
		}
		byKey[pt.key] = i
		runOf[i] = i
		if res, ok := tier.Lookup(r.ctx, pt.key, EngineFast); ok {
			pt.res = res
			stats.Peeled++
		}
	}
	return points, runOf
}

// guardedRequest is Problem.request with the panic containment of a run
// attempt: a panicking Build becomes a retryable *RunPanicError, which
// sends the run to the per-point path.
func (p *Problem) guardedRequest(ctx context.Context, i int, coded []float64) (d sim.Design, cfg sim.Config, err error) {
	defer func() {
		if v := recover(); v != nil {
			perr := &RunPanicError{Run: i, Value: v, Stack: debug.Stack()}
			obs.FromContext(ctx).Error("sim run panicked",
				"run", i, "panic", fmt.Sprint(v), "stack", string(perr.Stack))
			err = perr
		}
	}()
	return p.request(coded)
}

// lockstepChunk is one sim.RunBatch call: points sharing one excitation.
type lockstepChunk struct {
	pts  []int   // the points' run indexes
	cost float64 // modelled cost, see trajectoryCost
}

// loneSource keys a point whose excitation cannot be compared by value; it
// gets a chunk group of its own.
type loneSource int

// planChunks partitions the points to simulate into chunks and orders them
// longest first, so a pool that hands chunks out in order schedules them
// longest-processing-time first. Points join a group when their
// excitations compare equal (all other config fields are the problem's);
// within a group they are ordered by fast trajectory, so a chunk cut from
// it splits as few shared trajectories as possible. Each group starts as
// one chunk (split evenly where it exceeds maxBatchLanes) and is split
// further only while that lowers the modelled makespan on workers.
func planChunks(points []lockstepPoint, misses []int, workers int) []lockstepChunk {
	if len(misses) == 0 {
		return nil
	}
	type member struct{ u, traj int }
	var groups [][]member
	groupOf := make(map[any]int)
	trajOf := make(map[sim.TrajectoryKey]int)
	for n, u := range misses {
		pt := &points[u]
		var src any = loneSource(u)
		if v := reflect.ValueOf(pt.cfg.Source); v.IsValid() && v.Comparable() {
			src = pt.cfg.Source
		}
		g, ok := groupOf[src]
		if !ok {
			g = len(groups)
			groupOf[src] = g
			groups = append(groups, nil)
		}
		// Trajectory ordinals only order and cost lanes; sim.RunBatch
		// decides the actual sharing from the same key. A trajectory is
		// numbered by the first point on it.
		key, shared := sim.Trajectory(pt.d, pt.cfg)
		traj := n
		if shared {
			if t, ok := trajOf[key]; ok {
				traj = t
			} else {
				trajOf[key] = traj
			}
		}
		groups[g] = append(groups[g], member{u: u, traj: traj})
	}
	for _, g := range groups {
		sort.SliceStable(g, func(a, b int) bool { return g[a].traj < g[b].traj })
	}

	// cut calls fn with the bounds of s contiguous, near-equal pieces of g.
	cut := func(g []member, s int, fn func(lo, hi int)) {
		for k, lo := 0, 0; k < s; k++ {
			hi := lo + len(g)/s
			if k < len(g)%s {
				hi++
			}
			fn(lo, hi)
			lo = hi
		}
	}
	// cost models g[lo:hi] as one chunk.
	cost := func(g []member, lo, hi int) float64 {
		c := float64(hi - lo)
		for m := lo; m < hi; m++ {
			if m == lo || g[m].traj != g[m-1].traj {
				c += trajectoryCost
			}
		}
		return c
	}
	span := func(splits []int) float64 {
		var costs []float64
		for g, s := range splits {
			cut(groups[g], s, func(lo, hi int) { costs = append(costs, cost(groups[g], lo, hi)) })
		}
		return makespan(costs, workers)
	}

	splits := make([]int, len(groups))
	for g, members := range groups {
		splits[g] = (len(members) + maxBatchLanes - 1) / maxBatchLanes
	}
	best := span(splits)
	for {
		bestG, bestSpan := -1, best
		for g, members := range groups {
			if splits[g] == len(members) {
				continue
			}
			splits[g]++
			if sp := span(splits); sp < bestSpan-1e-9 {
				bestG, bestSpan = g, sp
			}
			splits[g]--
		}
		if bestG < 0 {
			break
		}
		splits[bestG]++
		best = bestSpan
	}

	var chunks []lockstepChunk
	for g, s := range splits {
		cut(groups[g], s, func(lo, hi int) {
			c := lockstepChunk{pts: make([]int, 0, hi-lo), cost: cost(groups[g], lo, hi)}
			for _, m := range groups[g][lo:hi] {
				c.pts = append(c.pts, m.u)
			}
			chunks = append(chunks, c)
		})
	}
	sort.SliceStable(chunks, func(a, b int) bool { return chunks[a].cost > chunks[b].cost })
	return chunks
}

// makespan is the finish time of the busiest of workers when the costs,
// longest first, each go to the least-loaded worker.
func makespan(costs []float64, workers int) float64 {
	sort.Sort(sort.Reverse(sort.Float64Slice(costs)))
	loads := make([]float64, max(workers, 1))
	for _, c := range costs {
		least := 0
		for w := range loads {
			if loads[w] < loads[least] {
				least = w
			}
		}
		loads[least] += c
	}
	span := 0.0
	for _, l := range loads {
		span = max(span, l)
	}
	return span
}

// runChunks steps the chunks across the worker pool, in order. Each chunk
// is guarded the way the per-point path guards a run: a panic is
// contained (its points fall through to the per-point path, whose own
// guard converts a repeat panic into a typed error), and when the problem
// carries a per-run deadline the chunk gets lanes×RunTimeout before it is
// abandoned — like runAttempt, the goroutine of an abandoned chunk finishes
// in the background and its results are discarded.
func (r *designRun) runChunks(chunks []lockstepChunk, points []lockstepPoint, workers int, tier cacheTier, stats *BatchStats) {
	var mu sync.Mutex
	r.each(workers, len(chunks), func(i int) {
		start := time.Now()
		results, bs, ok := r.runChunk(chunks[i], points)
		r.work.Add(int64(time.Since(start)))
		if !ok {
			return
		}
		mu.Lock()
		stats.Lanes += bs.Lanes
		stats.Trajectories += bs.Trajectories
		stats.Rebuilds += bs.Rebuilds
		stats.AmortizedRebuilds += bs.AmortizedRebuilds
		mu.Unlock()
		for l, res := range results {
			if res == nil {
				continue // lane error: the point retries on the per-point path
			}
			pt := &points[chunks[i].pts[l]]
			pt.res = res
			tier.Insert(pt.key, EngineFast, res)
		}
	})
}

// runChunk runs one chunk under its guard; ok is false when the chunk
// panicked, outlived its deadline or the design run was aborted.
func (r *designRun) runChunk(c lockstepChunk, points []lockstepPoint) (results []*sim.Result, bs sim.BatchStats, ok bool) {
	lg := obs.FromContext(r.ctx)
	designs := make([]sim.Design, len(c.pts))
	for l, u := range c.pts {
		designs[l] = points[u].d
	}
	cfg := points[c.pts[0]].cfg
	type outcome struct {
		results []*sim.Result
		bs      sim.BatchStats
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			if v := recover(); v != nil {
				o = outcome{err: fmt.Errorf("core: batch chunk panicked: %v", v)}
			}
			ch <- o
		}()
		o.results, o.bs, _ = sim.RunBatchStats(designs, cfg)
	}()
	var deadline <-chan time.Time
	if r.p.RunTimeout > 0 {
		tm := time.NewTimer(time.Duration(len(c.pts)) * r.p.RunTimeout)
		defer tm.Stop()
		deadline = tm.C
	}
	start := time.Now()
	select {
	case o := <-ch:
		if o.err != nil {
			lg.Warn("batch chunk failed", "lanes", len(c.pts), "err", o.err.Error())
			return nil, sim.BatchStats{}, false
		}
		lg.Debug("batch chunk", "lanes", len(c.pts), "trajectories", o.bs.Trajectories,
			"sim_ms", float64(time.Since(start).Microseconds())/1e3)
		return o.results, o.bs, true
	case <-deadline:
		lg.Warn("batch chunk abandoned past deadline", "lanes", len(c.pts))
	case <-r.abort:
	}
	return nil, sim.BatchStats{}, false
}

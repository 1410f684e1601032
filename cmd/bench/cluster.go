package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// The fleet-scaling benchmark measures the distributed-build fabric
// (internal/cluster): one whole shard-and-gather cycle of a 27-point
// face-centered composite over an httptest fleet, once with a single
// worker and once with fleetWorkers. The fake engine is latency-bound —
// a fixed sleep per point — because an in-process fleet shares this
// machine's CPUs; in the deployed topology every simnode burns its own
// cores and the coordinator's whole job is overlapping that latency, so
// the 1-vs-N ratio here isolates exactly what the protocol adds.
const (
	fleetWorkers      = 4
	fleetPointLatency = 2 * time.Millisecond
)

var sinkDataset *core.Dataset

// fleetBenchProblem is the deterministic fake-engine factory the bench
// workers run: closed-form responses, a fixed per-point sleep, and no
// cache so every point pays full latency on every iteration.
func fleetBenchProblem(excite, horizon float64) *core.Problem {
	p := core.StandardProblem(excite, horizon)
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(fleetPointLatency)
		r := &sim.Result{
			AvgHarvestedPower: d.Node.Period * 1e-6,
			StoredEnergyEnd:   d.Store.C,
			FinalStoreV:       3,
			UptimeFraction:    d.Store.C * 5,
			NetEnergyMargin:   1e-3 * d.Node.Period,
		}
		r.Node.Packets = int(d.Node.Period)
		r.Node.FirstTxTime = d.Node.Period / 2
		return r, nil
	}
	p.EngineName = "benchfleet"
	p.Runner = simcache.Direct{}
	return p
}

// benchFleet stands up a coordinator plus n workers, measures
// Coordinator.RunDesign over the standard ccf design, then drains the
// fleet. The returned result feeds the fleet_Nv1_workers speedup.
func benchFleet(r *benchkit.Report, name string, n int) (testing.BenchmarkResult, error) {
	coord := cluster.NewCoordinator(cluster.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		LeaseTimeout:      time.Minute,
		LeasePoints:       2,
		PollInterval:      time.Millisecond,
		Tick:              10 * time.Millisecond,
	})
	defer coord.Shutdown()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	errcs := make([]chan error, 0, n)
	for i := 0; i < n; i++ {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("bench-%dw-%d", n, i),
			Problem:     fleetBenchProblem,
			Concurrency: 1,
			Heartbeat:   10 * time.Millisecond,
		})
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		errc := make(chan error, 1)
		go func() { errc <- w.Run(context.Background()) }()
		errcs = append(errcs, errc)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveWorkers() < n {
		if time.Now().After(deadline) {
			return testing.BenchmarkResult{}, fmt.Errorf("only %d/%d bench workers registered", coord.LiveWorkers(), n)
		}
		time.Sleep(time.Millisecond)
	}

	design, err := core.NamedDesign("ccf", 4, 0, 1)
	if err != nil {
		return testing.BenchmarkResult{}, err
	}
	spec := cluster.JobSpec{ // ID stays empty: the coordinator mints one per build
		Excite:    0.6,
		Horizon:   1,
		Responses: fleetBenchProblem(0.6, 1).Responses,
	}
	br := measure(r, name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds, err := coord.RunDesign(context.Background(), spec, design)
			if err != nil {
				b.Fatal(err)
			}
			sinkDataset = ds
		}
	})

	coord.Shutdown()
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				return br, fmt.Errorf("bench worker %d exited dirty: %w", i, err)
			}
		case <-time.After(10 * time.Second):
			return br, fmt.Errorf("bench worker %d never drained", i)
		}
	}
	return br, nil
}

// benchClusterScaling runs the 1-worker and fleetWorkers-worker
// measurements and records their ratio as the fleet-scaling speedup, then
// the repeated-point measurement over a cache-sharded fleet.
func benchClusterScaling(r *benchkit.Report) error {
	one, err := benchFleet(r, "cluster/FleetBuild1Worker", 1)
	if err != nil {
		return fmt.Errorf("fleet bench (1 worker): %w", err)
	}
	name := fmt.Sprintf("cluster/FleetBuild%dWorkers", fleetWorkers)
	many, err := benchFleet(r, name, fleetWorkers)
	if err != nil {
		return fmt.Errorf("fleet bench (%d workers): %w", fleetWorkers, err)
	}
	if manyNs := float64(many.NsPerOp()); manyNs > 0 {
		r.SetSpeedup(fmt.Sprintf("fleet_%dv1_workers", fleetWorkers),
			float64(one.NsPerOp())/manyNs)
	}
	if err := benchFleetRepeated(r, many); err != nil {
		return fmt.Errorf("fleet bench (repeated points): %w", err)
	}
	return nil
}

// fleetCachedBenchProblem is fleetBenchProblem with the Runner left nil, so
// each bench worker fronts the engine with its own simcache — the
// configuration the sharded cache tier needs.
func fleetCachedBenchProblem(excite, horizon float64) *core.Problem {
	p := fleetBenchProblem(excite, horizon)
	p.Runner = nil
	return p
}

// benchFleetRepeated measures a repeated-point fleet build over a
// cache-sharded fleet: the first (unmeasured) build simulates each unique
// point exactly once fleet-wide, then every measured repeat is answered
// from worker caches and peer fetches — no engine latency at all. The
// ratio against the cache-less fleetWorkers measurement is recorded as the
// fleet_repeat_cache speedup.
func benchFleetRepeated(r *benchkit.Report, baseline testing.BenchmarkResult) error {
	coord := cluster.NewCoordinator(cluster.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  5 * time.Second,
		LeaseTimeout:      time.Minute,
		LeasePoints:       2,
		PollInterval:      time.Millisecond,
		Tick:              10 * time.Millisecond,
	})
	defer coord.Shutdown()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	errcs := make([]chan error, 0, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		cache := simcache.New(simcache.Options{Capacity: 256})
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("bench-repeat-%d", i),
			Problem:     fleetCachedBenchProblem,
			Runner:      cache,
			Cache:       cache,
			PeerAddr:    "127.0.0.1:0",
			Concurrency: 1,
			Heartbeat:   10 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		errc := make(chan error, 1)
		go func() { errc <- w.Run(context.Background()) }()
		errcs = append(errcs, errc)
	}
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveWorkers() < fleetWorkers {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d/%d repeat-bench workers registered", coord.LiveWorkers(), fleetWorkers)
		}
		time.Sleep(time.Millisecond)
	}

	design, err := core.NamedDesign("ccf", 4, 0, 1)
	if err != nil {
		return err
	}
	spec := cluster.JobSpec{
		Excite:    0.6,
		Horizon:   1,
		Responses: fleetCachedBenchProblem(0.6, 1).Responses,
	}
	// Warm build: populates the sharded fleet cache.
	if _, err := coord.RunDesign(context.Background(), spec, design); err != nil {
		return err
	}
	br := measure(r, "cluster/FleetBuildRepeated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds, err := coord.RunDesign(context.Background(), spec, design)
			if err != nil {
				b.Fatal(err)
			}
			sinkDataset = ds
		}
	})

	coord.Shutdown()
	for i, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				return fmt.Errorf("repeat-bench worker %d exited dirty: %w", i, err)
			}
		case <-time.After(10 * time.Second):
			return fmt.Errorf("repeat-bench worker %d never drained", i)
		}
	}
	if repNs := float64(br.NsPerOp()); repNs > 0 && baseline.NsPerOp() > 0 {
		r.SetSpeedup("fleet_repeat_cache", float64(baseline.NsPerOp())/repNs)
	}
	return nil
}

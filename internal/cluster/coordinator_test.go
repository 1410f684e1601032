package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// testProblem is the standard 4-factor problem with a fast deterministic
// fake engine: every response is a pure function of the design point, so
// fleet and local runs are comparable bit-for-bit without real simulation
// cost. EngineName is set so the runner chain (cache, fault injector) is
// exercised; the Direct runner keeps tests isolated from the process-wide
// cache.
func testProblem(excite, horizon float64) *core.Problem {
	p := core.StandardProblem(excite, horizon)
	p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		// A token per-point cost so multi-worker tests genuinely interleave
		// instead of one worker draining the whole queue between polls.
		time.Sleep(200 * time.Microsecond)
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
	p.EngineName = "clustertest"
	p.Runner = simcache.Direct{}
	return p
}

func testSpec() JobSpec {
	p := testProblem(0.6, 2)
	return JobSpec{ID: "job-test", Excite: 0.6, Horizon: 2, Responses: p.Responses}
}

func testDesign(t *testing.T) *doe.Design {
	t.Helper()
	d, err := core.NamedDesign("ccf", 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fastConfig shrinks the failure detectors for tests.
func fastConfig() Config {
	return Config{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		LeaseTimeout:      time.Minute,
		LeasePoints:       4,
		PollInterval:      2 * time.Millisecond,
		Tick:              10 * time.Millisecond,
	}
}

// localDataset runs the design locally — the reference for bit-identical
// comparisons.
func localDataset(t *testing.T, design *doe.Design) *core.Dataset {
	t.Helper()
	ds, err := testProblem(0.6, 2).RunDesign(context.Background(), design, 4)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameY asserts two datasets carry bitwise-identical response columns.
func sameY(t *testing.T, got, want *core.Dataset) {
	t.Helper()
	if len(got.Y) != len(want.Y) {
		t.Fatalf("got %d response columns, want %d", len(got.Y), len(want.Y))
	}
	for id, wcol := range want.Y {
		gcol, ok := got.Y[id]
		if !ok {
			t.Fatalf("missing response column %q", id)
		}
		if len(gcol) != len(wcol) {
			t.Fatalf("response %q has %d rows, want %d", id, len(gcol), len(wcol))
		}
		for i := range wcol {
			if gcol[i] != wcol[i] {
				t.Fatalf("response %q row %d: got %v, want %v (not bit-identical)", id, i, gcol[i], wcol[i])
			}
		}
	}
}

// runPoints computes the worker-side answer for a lease, the way a real
// worker would.
func runPoints(t *testing.T, l *LeaseView) []PointResult {
	t.Helper()
	p := testProblem(l.Excite, l.Horizon)
	out := make([]PointResult, 0, len(l.Points))
	for _, pt := range l.Points {
		vals, _, err := p.RunPoint(context.Background(), pt.Index, pt.Coded)
		if err != nil {
			t.Fatalf("point %d: %v", pt.Index, err)
		}
		values := make(map[string]float64, len(vals))
		for id, v := range vals {
			values[string(id)] = v
		}
		out = append(out, PointResult{Index: pt.Index, Values: values, ElapsedNs: 1})
	}
	return out
}

type built struct {
	ds  *core.Dataset
	err error
}

// startBuild launches a fleet build of the design in the background.
func startBuild(c *Coordinator, design *doe.Design) chan built {
	done := make(chan built, 1)
	go func() {
		ds, err := c.RunDesign(context.Background(), testSpec(), design)
		done <- built{ds, err}
	}()
	return done
}

// leaseOrPoll leases with a deadline, tolerating the empty interval before
// the background RunDesign enqueues its job.
func leaseOrPoll(t *testing.T, c *Coordinator, worker, epoch string) LeaseResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		lr := c.Lease(context.Background(), LeaseRequest{Worker: worker, Epoch: epoch})
		if lr.Lease != nil || lr.Gone || lr.Draining {
			return lr
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease granted within deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drainJob plays worker id by hand — lease, run, report — until the
// background build resolves.
func drainJob(t *testing.T, c *Coordinator, id, epoch string, done <-chan built) built {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case b := <-done:
			return b
		case <-deadline:
			t.Fatal("build never finished")
		default:
		}
		lr := c.Lease(context.Background(), LeaseRequest{Worker: id, Epoch: epoch})
		if lr.Gone || lr.Draining {
			t.Fatalf("worker %s rejected mid-drain: %+v", id, lr)
		}
		if lr.Lease == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if rr := c.Results(ResultsRequest{Worker: id, Epoch: epoch, Lease: lr.Lease.ID, Results: runPoints(t, lr.Lease)}); !rr.OK {
			t.Fatalf("results rejected: %+v", rr)
		}
	}
}

// TestRunDesignRequiresWorkers: a fleet build with no registered workers
// is rejected up front with the typed sentinel.
func TestRunDesignRequiresWorkers(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	if _, err := c.RunDesign(context.Background(), testSpec(), testDesign(t)); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("got %v, want ErrNoWorkers", err)
	}
}

// TestManualFleetCompletes drives one worker by hand through the typed
// protocol and checks the assembled dataset against a local run.
func TestManualFleetCompletes(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	reg, err := c.Register(RegisterRequest{Worker: "a", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	design := testDesign(t)
	b := drainJob(t, c, "a", reg.Epoch, startBuild(c, design))
	if b.err != nil {
		t.Fatal(b.err)
	}
	sameY(t, b.ds, localDataset(t, design))
	if b.ds.SimWork <= 0 {
		t.Fatalf("SimWork not aggregated: %v", b.ds.SimWork)
	}
	views := c.Workers()
	if len(views) != 1 || views[0].CompletedPoints != design.N() || views[0].State != workerActive {
		t.Fatalf("worker view after build: %+v", views)
	}
}

// queuedPoints reports, per design index, whether the build's point is
// waiting for a grant.
func queuedPoints(c *Coordinator) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.jobs) != 1 {
		return nil
	}
	return append([]bool(nil), c.jobs[0].queued...)
}

// TestPartialUploadRequeuesOmittedPoints: an upload that leaves leased
// points unsettled puts them back on the queue, a result for a point
// outside the lease is ignored, and the build still completes bit-identical
// to a local run.
func TestPartialUploadRequeuesOmittedPoints(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	reg, err := c.Register(RegisterRequest{Worker: "a"})
	if err != nil {
		t.Fatal(err)
	}
	design := testDesign(t)
	done := startBuild(c, design)

	empty := leaseOrPoll(t, c, "a", reg.Epoch)
	if rr := c.Results(ResultsRequest{Worker: "a", Epoch: reg.Epoch, Lease: empty.Lease.ID}); !rr.OK {
		t.Fatalf("empty upload rejected: %+v", rr)
	}
	queued := queuedPoints(c)
	for _, pt := range empty.Lease.Points {
		if queued == nil || !queued[pt.Index] {
			t.Fatalf("point %d of the empty upload's lease was not requeued", pt.Index)
		}
	}

	partial := leaseOrPoll(t, c, "a", reg.Epoch)
	results := runPoints(t, partial.Lease)[:1]
	outside := empty.Lease.Points[0].Index
	bogus := make(map[string]float64, len(results[0].Values))
	for id := range results[0].Values {
		bogus[id] = -1
	}
	results = append(results, PointResult{Index: outside, Values: bogus})
	if rr := c.Results(ResultsRequest{Worker: "a", Epoch: reg.Epoch, Lease: partial.Lease.ID, Results: results}); !rr.OK {
		t.Fatalf("partial upload rejected: %+v", rr)
	}
	queued = queuedPoints(c)
	for _, pt := range partial.Lease.Points[1:] {
		if queued == nil || !queued[pt.Index] {
			t.Fatalf("point %d omitted from the partial upload was not requeued", pt.Index)
		}
	}

	b := drainJob(t, c, "a", reg.Epoch, done)
	if b.err != nil {
		t.Fatal(b.err)
	}
	sameY(t, b.ds, localDataset(t, design))
}

// TestSplitBrainReregistration: re-registering a worker ID supersedes the
// old incarnation — its epoch answers Gone everywhere, its leased points
// are re-enqueued, and the build completes through the new epoch only.
func TestSplitBrainReregistration(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatTimeout = time.Minute // isolate: only re-registration may revoke
	c := NewCoordinator(cfg)
	defer c.Shutdown()
	reg1, err := c.Register(RegisterRequest{Worker: "a"})
	if err != nil {
		t.Fatal(err)
	}
	design := testDesign(t)
	done := startBuild(c, design)

	// The old incarnation takes a lease, then its twin re-registers.
	lr1 := leaseOrPoll(t, c, "a", reg1.Epoch)
	reg2, err := c.Register(RegisterRequest{Worker: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Epoch == reg1.Epoch {
		t.Fatal("re-registration must mint a fresh epoch")
	}
	// Every old-epoch call answers Gone; its results are never recorded.
	if hb := c.Heartbeat(HeartbeatRequest{Worker: "a", Epoch: reg1.Epoch}); !hb.Gone {
		t.Fatalf("stale heartbeat: %+v", hb)
	}
	if rr := c.Results(ResultsRequest{Worker: "a", Epoch: reg1.Epoch, Lease: lr1.Lease.ID, Results: runPoints(t, lr1.Lease)}); !rr.Gone {
		t.Fatalf("stale results accepted: %+v", rr)
	}
	// The new epoch alone completes the whole design — proof the old
	// lease's points were re-enqueued.
	b := drainJob(t, c, "a", reg2.Epoch, done)
	if b.err != nil {
		t.Fatal(b.err)
	}
	sameY(t, b.ds, localDataset(t, design))
	if b.ds.Retries == 0 {
		t.Fatal("re-enqueued grants must surface in Dataset.Retries")
	}
}

// TestCircuitBreakerEviction: consecutive failed points evict a worker
// (its epoch answers Gone), the failed points retry elsewhere, and the
// evicted worker may rejoin with a fresh epoch.
func TestCircuitBreakerEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatTimeout = time.Minute
	cfg.MaxWorkerFailures = 2
	cfg.MaxPointAttempts = 4
	cfg.LeasePoints = 1
	c := NewCoordinator(cfg)
	defer c.Shutdown()
	mreg := obs.NewRegistry()
	c.RegisterMetrics(mreg, "test_cluster")

	bad, err := c.Register(RegisterRequest{Worker: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := c.Register(RegisterRequest{Worker: "good"})
	if err != nil {
		t.Fatal(err)
	}
	design := testDesign(t)
	done := startBuild(c, design)

	// Two consecutive transient failures trip the breaker.
	for i := 0; i < 2; i++ {
		lr := leaseOrPoll(t, c, "bad", bad.Epoch)
		c.Results(ResultsRequest{Worker: "bad", Epoch: bad.Epoch, Lease: lr.Lease.ID, Results: []PointResult{
			{Index: lr.Lease.Points[0].Index, Error: "injected transient", Transient: true},
		}})
	}
	if lr := c.Lease(context.Background(), LeaseRequest{Worker: "bad", Epoch: bad.Epoch}); !lr.Gone {
		t.Fatalf("evicted worker still leasing: %+v", lr)
	}
	views := c.Workers()
	var badView *WorkerView
	for i := range views {
		if views[i].ID == "bad" {
			badView = &views[i]
		}
	}
	if badView == nil || badView.State != workerEvicted {
		t.Fatalf("bad worker view: %+v", badView)
	}
	if !strings.Contains(string(mreg.Render()), `test_cluster_worker_evicted_total{worker="bad"} 1`) {
		t.Fatalf("eviction metric missing:\n%s", mreg.Render())
	}

	// The good worker finishes the build, failed points included.
	b := drainJob(t, c, "good", good.Epoch, done)
	if b.err != nil {
		t.Fatal(b.err)
	}
	sameY(t, b.ds, localDataset(t, design))
	if b.ds.Retries == 0 {
		t.Fatal("re-enqueued grants must surface in Dataset.Retries")
	}
	// Rejoining resets the breaker with a fresh epoch.
	re, err := c.Register(RegisterRequest{Worker: "bad"})
	if err != nil || re.Epoch == bad.Epoch || re.Draining {
		t.Fatalf("rejoin failed: %+v, %v", re, err)
	}
}

// TestPermanentFailureFailsBuild: a non-transient point failure fails the
// whole build instead of retrying forever.
func TestPermanentFailureFailsBuild(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	done := startBuild(c, testDesign(t))
	lr := leaseOrPoll(t, c, "a", reg.Epoch)
	c.Results(ResultsRequest{Worker: "a", Epoch: reg.Epoch, Lease: lr.Lease.ID, Results: []PointResult{
		{Index: lr.Lease.Points[0].Index, Error: "boom", Transient: false},
	}})
	select {
	case b := <-done:
		if b.err == nil || !strings.Contains(b.err.Error(), "boom") {
			t.Fatalf("got %v, want the permanent point failure", b.err)
		}
		if b.ds.Y != nil {
			t.Fatal("failed build must not carry response columns")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("build never failed")
	}
}

// TestPointBudgetExhaustion: a point repeatedly lost with the fleet-level
// retry budget spent fails the build with the exhausting cause in the
// chain.
func TestPointBudgetExhaustion(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatTimeout = time.Minute
	cfg.MaxPointAttempts = 2
	cfg.MaxWorkerFailures = 100 // keep the breaker out of this test
	cfg.LeasePoints = 1
	c := NewCoordinator(cfg)
	defer c.Shutdown()
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	done := startBuild(c, testDesign(t))
	// Fail every granted point transiently; requeued points rejoin the back
	// of the queue, so after one full cycle a second grant of some point
	// exhausts its 2-grant budget and fails the build.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case b := <-done:
			if b.err == nil || !strings.Contains(b.err.Error(), "failed after 2 grants") {
				t.Fatalf("got %v, want grant-budget exhaustion", b.err)
			}
			return
		case <-deadline:
			t.Fatal("build never failed")
		default:
		}
		lr := c.Lease(context.Background(), LeaseRequest{Worker: "a", Epoch: reg.Epoch})
		if lr.Lease == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		c.Results(ResultsRequest{Worker: "a", Epoch: reg.Epoch, Lease: lr.Lease.ID, Results: []PointResult{
			{Index: lr.Lease.Points[0].Index, Error: "flaky", Transient: true},
		}})
	}
}

// TestShutdownDrainsBuildsAndWorkers: Shutdown fails in-flight builds with
// ErrDraining, answers Draining to the fleet, and refuses new work.
func TestShutdownDrainsBuildsAndWorkers(t *testing.T) {
	c := NewCoordinator(fastConfig())
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	design := testDesign(t)
	done := startBuild(c, design)
	leaseOrPoll(t, c, "a", reg.Epoch) // an outstanding lease to cancel
	c.Shutdown()
	select {
	case b := <-done:
		if !errors.Is(b.err, ErrDraining) {
			t.Fatalf("got %v, want ErrDraining", b.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("build survived shutdown")
	}
	if lr := c.Lease(context.Background(), LeaseRequest{Worker: "a", Epoch: reg.Epoch}); !lr.Draining {
		t.Fatalf("lease after shutdown: %+v", lr)
	}
	if rr, err := c.Register(RegisterRequest{Worker: "b"}); err != nil || !rr.Draining {
		t.Fatalf("register after shutdown: %+v, %v", rr, err)
	}
	if _, err := c.RunDesign(context.Background(), testSpec(), design); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	c.Shutdown() // idempotent
}

// TestRunDesignContextCancel: cancelling the build context aborts the
// build with the cancellation cause, local-run style.
func TestRunDesignContextCancel(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	c.Register(RegisterRequest{Worker: "a"})
	design := testDesign(t)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.RunDesign(ctx, testSpec(), design)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled in the chain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("build survived cancellation")
	}
}

// TestWorkerLostErrorIsTransient: the whole-worker-loss error slots into
// core's typed-error semantics as retryable.
func TestWorkerLostErrorIsTransient(t *testing.T) {
	err := &WorkerLostError{Worker: "w", Reason: "heartbeat timeout"}
	if !core.IsTransient(err) {
		t.Fatal("WorkerLostError must be transient")
	}
	if !strings.Contains(err.Error(), "heartbeat timeout") {
		t.Fatalf("error text lacks the reason: %v", err)
	}
}

package cluster

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// lockedBuffer is a goroutine-safe log sink for asserting on log lines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func testLogger(buf *lockedBuffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// startWorker runs a fleet worker against the coordinator URL; the
// returned channel carries Run's result.
func startWorker(t *testing.T, url, id string, factory ProblemFactory, lg *slog.Logger) (*Worker, chan error) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: url,
		ID:          id,
		Problem:     factory,
		Concurrency: 2,
		Heartbeat:   10 * time.Millisecond,
		Log:         lg,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- w.Run(context.Background()) }()
	return w, errc
}

func waitLive(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.LiveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered in time", c.LiveWorkers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func wantRunErr(t *testing.T, errc chan error, want error, who string) {
	t.Helper()
	select {
	case err := <-errc:
		if want == nil {
			if err != nil {
				t.Fatalf("%s: Run returned %v, want nil", who, err)
			}
		} else if !errors.Is(err, want) {
			t.Fatalf("%s: Run returned %v, want %v", who, err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Run never returned", who)
	}
}

// checkNoLeak polls until the goroutine count returns to (near) the
// baseline, mirroring the serve shutdown leak test.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d before\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetBuildMatchesLocal: a 3-worker httptest fleet produces a Dataset
// bit-identical to a local Problem.RunDesign run, then drains cleanly with
// no goroutine leak.
func TestFleetBuildMatchesLocal(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewCoordinator(fastConfig())
	srv := httptest.NewServer(c.Handler())

	ids := []string{"w-1", "w-2", "w-3"}
	var errcs []chan error
	for _, id := range ids {
		_, errc := startWorker(t, srv.URL, id, testProblem, nil)
		errcs = append(errcs, errc)
	}
	waitLive(t, c, 3)

	design := testDesign(t)
	ds, err := c.RunDesign(context.Background(), testSpec(), design)
	if err != nil {
		t.Fatal(err)
	}
	sameY(t, ds, localDataset(t, design))

	// Work actually spread: every point landed exactly once, across >1
	// worker.
	total, contributed := 0, 0
	for _, v := range c.Workers() {
		total += v.CompletedPoints
		if v.CompletedPoints > 0 {
			contributed++
		}
	}
	if total != design.N() {
		t.Fatalf("completed %d points, want %d", total, design.N())
	}
	if contributed < 2 {
		t.Fatalf("only %d workers completed points; sharding never spread", contributed)
	}

	c.Shutdown()
	for i, errc := range errcs {
		wantRunErr(t, errc, nil, ids[i])
	}
	srv.CloseClientConnections()
	srv.Close()
	checkNoLeak(t, before)
}

// TestWorkerKillChaosConverges is the chaos e2e: one of three workers is
// wired with the fault injector's Kill mode (PKill=1, so its very first
// run dies mid-lease). The coordinator declares it lost on heartbeat
// timeout, re-enqueues its leased points under a WorkerLostError, and the
// surviving workers converge to a Dataset bit-identical to the local run.
func TestWorkerKillChaosConverges(t *testing.T) {
	c := NewCoordinator(fastConfig()) // 250ms heartbeat timeout, 10ms tick
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Shutdown()

	// The victim joins alone first, so it is guaranteed to lease (and die
	// holding) the first batch; the healthy workers join right after the
	// kill and pick up the pieces.
	inj := fault.New(fault.Config{Seed: 1, PKill: 1})
	killFactory := func(excite, horizon float64) *core.Problem {
		p := testProblem(excite, horizon)
		p.Runner = inj.Wrap(nil)
		return p
	}
	victim, errcKill := startWorker(t, srv.URL, "w-victim", killFactory, nil)
	inj.OnKill(victim.Kill)
	waitLive(t, c, 1)

	design := testDesign(t)
	done := make(chan built, 1)
	go func() {
		ds, err := c.RunDesign(context.Background(), testSpec(), design)
		done <- built{ds, err}
	}()
	wantRunErr(t, errcKill, ErrKilled, "w-victim")

	_, errc1 := startWorker(t, srv.URL, "w-ok-1", testProblem, nil)
	_, errc2 := startWorker(t, srv.URL, "w-ok-2", testProblem, nil)

	var b built
	select {
	case b = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("chaos build never converged")
	}
	ds, err := b.ds, b.err
	if err != nil {
		t.Fatal(err)
	}
	sameY(t, ds, localDataset(t, design))

	// The victim's leased points travelled through the loss path.
	if ds.Retries == 0 {
		t.Fatal("worker loss must surface as Dataset.Retries")
	}
	var victimView *WorkerView
	for _, v := range c.Workers() {
		if v.ID == "w-victim" {
			vv := v
			victimView = &vv
		}
	}
	if victimView == nil || victimView.State != workerLost {
		t.Fatalf("victim view: %+v", victimView)
	}
	if victimView.CompletedPoints != 0 {
		t.Fatalf("a killed worker reported %d completed points", victimView.CompletedPoints)
	}

	c.Shutdown()
	wantRunErr(t, errc1, nil, "w-ok-1")
	wantRunErr(t, errc2, nil, "w-ok-2")
}

// TestLeaseStealing: a worker that sits on a lease past the lease timeout
// has its points stolen and re-granted; the healthy worker finishes the
// build, and the slow worker's late results are dropped (first result
// wins) without corrupting the dataset.
func TestLeaseStealing(t *testing.T) {
	cfg := fastConfig()
	cfg.HeartbeatTimeout = time.Minute // slow ≠ dead: it keeps heartbeating
	cfg.LeaseTimeout = 50 * time.Millisecond
	cfg.Tick = 10 * time.Millisecond
	cfg.MaxPointAttempts = 3
	c := NewCoordinator(cfg)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Shutdown()

	// The slow worker joins alone first, so it is guaranteed to hold the
	// first lease (blocked) when the healthy worker joins.
	release := make(chan struct{})
	slowFactory := func(excite, horizon float64) *core.Problem {
		p := testProblem(excite, horizon)
		inner := p.Engine
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			<-release
			return inner(d, cfg)
		}
		return p
	}
	_, errcSlow := startWorker(t, srv.URL, "w-slow", slowFactory, nil)
	waitLive(t, c, 1)

	design := testDesign(t)
	done := make(chan built, 1)
	go func() {
		ds, err := c.RunDesign(context.Background(), testSpec(), design)
		done <- built{ds, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		views := c.Workers()
		if len(views) == 1 && views[0].InflightLeases > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow worker never took a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, errcFast := startWorker(t, srv.URL, "w-fast", testProblem, nil)

	var b built
	select {
	case b = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("build never finished despite the steal")
	}
	if b.err != nil {
		t.Fatal(b.err)
	}
	sameY(t, b.ds, localDataset(t, design))

	stolen := 0
	for _, v := range c.Workers() {
		stolen += v.StolenLeases
	}
	if stolen == 0 {
		t.Fatal("slow lease was never stolen")
	}

	// Unblock the slow worker; its late results must be absorbed quietly.
	close(release)
	c.Shutdown()
	wantRunErr(t, errcSlow, nil, "w-slow")
	wantRunErr(t, errcFast, nil, "w-fast")
}

// TestShutdownCancelsOutstandingLeases: draining the coordinator mid-lease
// fails the build with ErrDraining, logs the cancellation reason per
// lease, deregisters the worker cleanly, and leaks nothing.
func TestShutdownCancelsOutstandingLeases(t *testing.T) {
	before := runtime.NumGoroutine()
	var coordLog, workerLog lockedBuffer
	cfg := fastConfig()
	cfg.HeartbeatTimeout = time.Minute
	cfg.Log = testLogger(&coordLog)
	c := NewCoordinator(cfg)
	srv := httptest.NewServer(c.Handler())

	release := make(chan struct{})
	blockingFactory := func(excite, horizon float64) *core.Problem {
		p := testProblem(excite, horizon)
		inner := p.Engine
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			<-release
			return inner(d, cfg)
		}
		return p
	}
	_, errc := startWorker(t, srv.URL, "w-blocked", blockingFactory, testLogger(&workerLog))
	waitLive(t, c, 1)

	design := testDesign(t)
	buildErr := make(chan error, 1)
	go func() {
		_, err := c.RunDesign(context.Background(), testSpec(), design)
		buildErr <- err
	}()

	// Wait for the worker to hold a lease, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		views := c.Workers()
		if len(views) == 1 && views[0].InflightLeases > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never took a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Shutdown()

	select {
	case err := <-buildErr:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("build returned %v, want ErrDraining", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("build survived shutdown")
	}
	close(release) // let the blocked engine finish; its upload is a no-op
	wantRunErr(t, errc, nil, "w-blocked")

	logs := coordLog.String()
	if !strings.Contains(logs, "lease canceled") || !strings.Contains(logs, "coordinator draining") {
		t.Fatalf("coordinator log lacks the cancellation reason:\n%s", logs)
	}
	if !strings.Contains(workerLog.String(), "deregistering") {
		t.Fatalf("worker log lacks the drain goodbye:\n%s", workerLog.String())
	}

	srv.CloseClientConnections()
	srv.Close()
	checkNoLeak(t, before)
}

// TestLeaseCarriesTrace: the job's trace ID rides every lease, so worker
// log lines correlate with the coordinator's.
func TestLeaseCarriesTrace(t *testing.T) {
	c := NewCoordinator(fastConfig())
	defer c.Shutdown()
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	spec := testSpec()
	spec.Trace = "trace-xyz"
	design := testDesign(t)
	done := make(chan built, 1)
	go func() {
		ds, err := c.RunDesign(context.Background(), spec, design)
		done <- built{ds, err}
	}()
	lr := leaseOrPoll(t, c, "a", reg.Epoch)
	if lr.Lease.Trace != "trace-xyz" {
		t.Fatalf("lease trace %q, want trace-xyz", lr.Lease.Trace)
	}
	if lr.Lease.Excite != spec.Excite || lr.Lease.Horizon != spec.Horizon {
		t.Fatalf("lease problem params %v/%v diverge from spec", lr.Lease.Excite, lr.Lease.Horizon)
	}
	if rr := c.Results(ResultsRequest{Worker: "a", Epoch: reg.Epoch, Lease: lr.Lease.ID, Results: runPoints(t, lr.Lease)}); !rr.OK {
		t.Fatalf("results rejected: %+v", rr)
	}
	b := drainJob(t, c, "a", reg.Epoch, done)
	if b.err != nil {
		t.Fatal(b.err)
	}
}

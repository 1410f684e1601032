package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doe"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// transientErr is a retryable failure for tests (structural marker, like
// the ones internal/fault injects).
type transientErr struct{}

func (transientErr) Error() string   { return "synthetic transient failure" }
func (transientErr) Transient() bool { return true }

// scriptedRunner fails (or panics, or blocks) for the first failFirst
// calls, then returns a canned finite result without simulating.
type scriptedRunner struct {
	calls     atomic.Int64
	failFirst int64
	err       error
	panics    bool
	block     chan struct{} // when non-nil, failing calls block here instead
	result    sim.Result
}

func (r *scriptedRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	if r.calls.Add(1) <= r.failFirst {
		switch {
		case r.block != nil:
			<-r.block
		case r.panics:
			panic("scripted engine panic")
		default:
			return nil, r.err
		}
	}
	res := r.result
	return &res, nil
}

func scriptedProblem(r *scriptedRunner) *Problem {
	p := quickProblem()
	p.Runner = r
	p.Retry.BaseDelay = time.Millisecond
	p.Retry.MaxDelay = 2 * time.Millisecond
	return p
}

func TestRetryTransientSucceeds(t *testing.T) {
	r := &scriptedRunner{failFirst: 2, err: transientErr{}}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 3
	design, _ := doe.TwoLevelFactorial(3)

	for _, mode := range []string{"serial", "parallel"} {
		r.calls.Store(0)
		var ds *Dataset
		var err error
		if mode == "serial" {
			ds, err = p.RunDesign(context.Background(), design, 1)
		} else {
			ds, err = p.RunDesign(context.Background(), design, 2)
		}
		if err != nil {
			t.Fatalf("%s: build must survive transient faults via retries: %v", mode, err)
		}
		if ds.Retries != 2 {
			t.Fatalf("%s: want 2 retries recorded, got %d", mode, ds.Retries)
		}
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	r := &scriptedRunner{failFirst: 1 << 30, err: transientErr{}}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 2
	design, _ := doe.TwoLevelFactorial(3)

	ds, err := p.RunDesign(context.Background(), design, 1)
	if err == nil {
		t.Fatal("exhausted retries must fail the run")
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("error must report the attempt count: %v", err)
	}
	if ds == nil || ds.Retries != 1 {
		t.Fatalf("failed dataset must still carry retry stats: %+v", ds)
	}
}

// TestBuildFailureKeepsStats: a failed fixed build still returns a result
// whose dataset carries the retry stats of the aborted run, and no
// surfaces.
func TestBuildFailureKeepsStats(t *testing.T) {
	r := &scriptedRunner{failFirst: 1 << 30, err: transientErr{}}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 2
	design, _ := doe.TwoLevelFactorial(3)

	res, err := Build(context.Background(), BuildSpec{Problem: p, Design: design, Workers: 1})
	if err == nil {
		t.Fatal("exhausted retries must fail the build")
	}
	if res == nil || res.Dataset == nil || res.Dataset.Retries != 1 {
		t.Fatalf("failed build must still carry retry stats: %+v", res)
	}
	if res.Surfaces != nil || res.Adaptive != nil {
		t.Fatalf("failed fixed build must carry no surfaces or adaptive stats: %+v", res)
	}
	if _, err := Build(context.Background(), BuildSpec{Problem: p}); err == nil {
		t.Fatal("a fixed build without a design must be rejected")
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	r := &scriptedRunner{failFirst: 1 << 30, err: fmt.Errorf("permanent engine failure")}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 5
	design, _ := doe.TwoLevelFactorial(3)

	if _, err := p.RunDesign(context.Background(), design, 1); err == nil {
		t.Fatal("permanent failure must fail the run")
	}
	if n := r.calls.Load(); n != 1 {
		t.Fatalf("permanent failure must not be retried: %d calls", n)
	}
}

func TestPanicRecoveredIntoError(t *testing.T) {
	r := &scriptedRunner{failFirst: 1 << 30, panics: true}
	p := scriptedProblem(r)
	design, _ := doe.TwoLevelFactorial(3)

	ds, err := p.RunDesign(context.Background(), design, 2)
	if err == nil {
		t.Fatal("a permanently panicking engine must fail the build, not crash the test binary")
	}
	var perr *RunPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("want *RunPanicError in the chain, got %v", err)
	}
	if perr.Run < 0 || perr.Run >= design.N() {
		t.Fatalf("panic error must carry its design-point index, got %d", perr.Run)
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "scripted engine panic") {
		t.Fatalf("error must surface the panic message: %v", err)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("panic error must capture the stack")
	}
	if ds == nil || ds.PanicsRecovered == 0 {
		t.Fatalf("failed dataset must count recovered panics: %+v", ds)
	}
	if !IsTransient(perr) {
		t.Fatal("recovered panics must be retryable")
	}
}

func TestPanicRetriedThenSucceeds(t *testing.T) {
	r := &scriptedRunner{failFirst: 1, panics: true}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 2
	design, _ := doe.TwoLevelFactorial(3)

	ds, err := p.RunDesign(context.Background(), design, 1)
	if err != nil {
		t.Fatalf("one panic within the retry budget must not fail the build: %v", err)
	}
	if ds.PanicsRecovered != 1 || ds.Retries != 1 {
		t.Fatalf("want 1 panic + 1 retry recorded, got %d/%d", ds.PanicsRecovered, ds.Retries)
	}
}

func TestRunTimeoutAbandonsHungRun(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	r := &scriptedRunner{failFirst: 1 << 30, block: block}
	p := scriptedProblem(r)
	p.RunTimeout = 20 * time.Millisecond
	design, _ := doe.TwoLevelFactorial(3)

	start := time.Now()
	_, err := p.RunDesign(context.Background(), design, 1)
	if err == nil {
		t.Fatal("hung run must time out")
	}
	var terr *RunTimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("want *RunTimeoutError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("timeout must unwrap to context.DeadlineExceeded")
	}
	if !IsTransient(terr) {
		t.Fatal("per-run timeouts must be retryable")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("worker stayed pinned for %s", d)
	}
}

func TestNaNResponseRejectedNotRetried(t *testing.T) {
	r := &scriptedRunner{result: sim.Result{AvgHarvestedPower: math.NaN()}}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 5
	design, _ := doe.TwoLevelFactorial(3)

	_, err := p.RunDesign(context.Background(), design, 1)
	if err == nil {
		t.Fatal("NaN responses must be rejected before fitting")
	}
	var nerr *NumericError
	if !errors.As(err, &nerr) {
		t.Fatalf("want *NumericError, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("numeric invalidity must not be retryable")
	}
	if n := r.calls.Load(); n != 1 {
		t.Fatalf("NaN must not be retried: %d calls", n)
	}
}

func TestRetryCountsReachFaultStats(t *testing.T) {
	r := &scriptedRunner{failFirst: 1, err: transientErr{}}
	p := scriptedProblem(r)
	p.Retry.MaxAttempts = 2
	design, _ := doe.TwoLevelFactorial(3)

	fs := &obs.FaultStats{}
	ctx := obs.WithFaultStats(context.Background(), fs)
	if _, err := p.RunDesign(ctx, design, 2); err != nil {
		t.Fatal(err)
	}
	if fs.Retries.Value() != 1 {
		t.Fatalf("context fault stats must see the retry, got %d", fs.Retries.Value())
	}
}

// deadlineAwareRunner models a cancellation-aware runner (the cache's
// single-flight wait, the cluster peer client): failing calls block until
// the attempt context is done and surface its cause as a wrapped error —
// exactly the shape that races runAttempt's own deadline branch.
type deadlineAwareRunner struct {
	calls     atomic.Int64
	failFirst int64
	result    sim.Result
}

func (r *deadlineAwareRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	if r.calls.Add(1) <= r.failFirst {
		// Sleep up to just before the deadline, then spin on ctx.Err so the
		// wrapped error reaches runAttempt's result channel at the same
		// instant its own tctx.Done fires — maximizing the select race this
		// test pins down (a parked receive would always lose the race and
		// never exercise the channel branch).
		if dl, ok := ctx.Deadline(); ok {
			if d := time.Until(dl) - 2*time.Millisecond; d > 0 {
				time.Sleep(d)
			}
		}
		for ctx.Err() == nil {
		}
		return nil, fmt.Errorf("waiting on peer result: %w", context.Cause(ctx))
	}
	res := r.result
	return &res, nil
}

// TestDeadlineRaceNormalizedToTimeout pins the unified deadline semantics
// of the local and cluster pools: when a cancellation-aware runner returns
// the per-attempt deadline as its own wrapped error, the outcome must be
// the same retryable *RunTimeoutError the abandonment branch produces —
// regardless of which side of runAttempt's select wins — so a design
// point that would succeed on retry succeeds through both entry paths.
// Before the normalization this failed permanently on roughly half the
// iterations (whenever the runner's error won the select race).
func TestDeadlineRaceNormalizedToTimeout(t *testing.T) {
	design, _ := doe.TwoLevelFactorial(3)
	for iter := 0; iter < 10; iter++ {
		for _, entry := range []string{"local-pool", "cluster-entry"} {
			r := &deadlineAwareRunner{failFirst: 1}
			p := quickProblem()
			p.Runner = r
			p.Retry.BaseDelay = time.Millisecond
			p.Retry.MaxDelay = 2 * time.Millisecond
			p.Retry.MaxAttempts = 2
			p.RunTimeout = 10 * time.Millisecond

			var (
				retries int
				err     error
			)
			if entry == "local-pool" {
				r.failFirst = int64(1) // first call times out, retry succeeds
				var ds *Dataset
				ds, err = p.RunDesign(context.Background(), design, 1)
				if ds != nil {
					retries = ds.Retries
				}
				// Only the first design point's first attempt fails; the
				// remaining points are answered directly.
			} else {
				var st RunStats
				_, st, err = p.RunPoint(context.Background(), 0, design.Runs[0])
				retries = st.Retries
			}
			if err != nil {
				t.Fatalf("iter %d %s: deadline-raced run must be retried, got %v", iter, entry, err)
			}
			if retries != 1 {
				t.Fatalf("iter %d %s: want exactly 1 retry, got %d", iter, entry, retries)
			}
		}
	}
}

// TestBackoffNotChargedToRunDeadline pins the other half of the unified
// semantics: the backoff sleep between attempts runs on the parent
// context, so a backoff longer than the per-run deadline must not expire
// the retry — in either entry path.
func TestBackoffNotChargedToRunDeadline(t *testing.T) {
	design, _ := doe.TwoLevelFactorial(3)
	for _, entry := range []string{"local-pool", "cluster-entry"} {
		r := &scriptedRunner{failFirst: 1, err: transientErr{}}
		p := scriptedProblem(r)
		p.Retry.MaxAttempts = 2
		p.Retry.BaseDelay = 120 * time.Millisecond // > RunTimeout, incl. jitter
		p.Retry.MaxDelay = 150 * time.Millisecond
		p.RunTimeout = 40 * time.Millisecond

		var err error
		if entry == "local-pool" {
			_, err = p.RunDesign(context.Background(), design, 1)
		} else {
			_, _, err = p.RunPoint(context.Background(), 0, design.Runs[0])
		}
		if err != nil {
			t.Fatalf("%s: backoff sleep must not consume the per-run deadline: %v", entry, err)
		}
	}
}

// TestNormalizeDeadlineErr deterministically pins each arm of the
// normalization that TestDeadlineRaceNormalizedToTimeout exercises
// through real scheduling: only a genuinely deadline-caused, still-untyped
// error under a live parent context becomes a *RunTimeoutError.
func TestNormalizeDeadlineErr(t *testing.T) {
	p := quickProblem()
	p.RunTimeout = 30 * time.Millisecond
	parent := context.Background()
	expired, cancel := context.WithTimeout(parent, -time.Second)
	defer cancel()
	live, cancelLive := context.WithTimeout(parent, time.Hour)
	defer cancelLive()
	aborted, abort := context.WithCancel(parent)
	abort()

	wrapped := fmt.Errorf("waiting on peer result: %w", context.DeadlineExceeded)
	if err := p.normalizeDeadlineErr(parent, expired, 3, wrapped); err != nil {
		var terr *RunTimeoutError
		if !errors.As(err, &terr) || terr.Run != 3 || terr.Timeout != p.RunTimeout {
			t.Fatalf("deadline-caused error must normalize to *RunTimeoutError, got %v", err)
		}
		if !IsTransient(err) {
			t.Fatal("normalized timeout must stay retryable")
		}
	} else {
		t.Fatal("want an error back")
	}

	// Attempt deadline not expired: the error is the runner's own business.
	if err := p.normalizeDeadlineErr(parent, live, 3, wrapped); err != wrapped {
		t.Fatalf("live attempt context must pass the error through, got %v", err)
	}
	// Parent aborted: an abort stays an abort (never converted to a retry).
	if err := p.normalizeDeadlineErr(aborted, expired, 3, wrapped); err != wrapped {
		t.Fatalf("parent abort must pass through, got %v", err)
	}
	// Already typed: idempotent.
	typed := &RunTimeoutError{Run: 3, Timeout: p.RunTimeout}
	if err := p.normalizeDeadlineErr(parent, expired, 3, typed); err != typed {
		t.Fatalf("typed timeout must pass through unchanged, got %v", err)
	}
	// Unrelated errors pass through.
	plain := fmt.Errorf("engine exploded")
	if err := p.normalizeDeadlineErr(parent, expired, 3, plain); err != plain {
		t.Fatalf("non-deadline error must pass through, got %v", err)
	}
	if err := p.normalizeDeadlineErr(parent, expired, 3, nil); err != nil {
		t.Fatalf("nil must pass through, got %v", err)
	}
}

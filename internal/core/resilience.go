package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// RunPanicError is a panic recovered from a simulation run: the engine (or
// anything beneath it) panicked and the design-run worker converted the
// panic into an error instead of letting it kill the process. It is
// retryable — a panic on a pathological corner may not recur — but when
// the retry budget is exhausted it surfaces with the design-point index
// and the original panic value.
type RunPanicError struct {
	Run   int    // design-point index
	Value any    // the recovered panic value
	Stack []byte // stack captured at the recovery point
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("core: run %d panicked: %v", e.Run, e.Value)
}

// Transient marks recovered panics as retryable.
func (e *RunPanicError) Transient() bool { return true }

// RunTimeoutError reports a run that exceeded the problem's per-run
// deadline (Problem.RunTimeout). The hung simulation is abandoned — the
// engine itself is not preemptible — and the run is retryable.
type RunTimeoutError struct {
	Run     int
	Timeout time.Duration
}

func (e *RunTimeoutError) Error() string {
	return fmt.Sprintf("core: run %d exceeded the per-run deadline %s", e.Run, e.Timeout)
}

// Transient marks per-run timeouts as retryable.
func (e *RunTimeoutError) Transient() bool { return true }

// Unwrap lets errors.Is(err, context.DeadlineExceeded) see the timeout.
func (e *RunTimeoutError) Unwrap() error { return context.DeadlineExceeded }

// NumericError rejects a simulation whose extracted response is NaN or
// ±Inf — a stiff-solver corner or an injected fault — before the value can
// poison an RSM fit. It is not retryable: a numerically invalid result at
// a design point is assumed to recur.
type NumericError struct {
	Response ResponseID
	Value    float64
}

func (e *NumericError) Error() string {
	return fmt.Sprintf("core: response %q is not finite (%v)", e.Response, e.Value)
}

// IsTransient reports whether err is marked retryable: any error in the
// chain implementing Transient() bool decides. Injected faults
// (internal/fault), recovered panics and per-run timeouts qualify;
// validation and numeric-validity errors do not.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy is the per-run retry budget of a design run: transient
// failures are retried with exponential backoff plus jitter, aborting
// early when the run's context is cancelled. The zero value means one
// attempt (no retries).
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per run; <=0 means 1.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50 ms);
	// it doubles per attempt up to MaxDelay (default 2 s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter is the relative jitter fraction applied to each delay
	// (0 means the default 0.2: ±20%).
	Jitter float64
	// Seed makes the jitter sequence reproducible per run index.
	Seed int64
}

func (rp RetryPolicy) withDefaults() RetryPolicy {
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = 1
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = 50 * time.Millisecond
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = 2 * time.Second
	}
	if rp.Jitter <= 0 {
		rp.Jitter = 0.2
	}
	return rp
}

// delay computes the backoff before retry number retry (1-based),
// exponential with jitter. Policy must have defaults applied.
func (rp RetryPolicy) delay(retry int, rng *rand.Rand) time.Duration {
	d := rp.BaseDelay
	for i := 1; i < retry && d < rp.MaxDelay; i++ {
		d *= 2
	}
	if d > rp.MaxDelay {
		d = rp.MaxDelay
	}
	// Jitter in [1-j, 1+j] spreads synchronized retries apart.
	f := 1 + rp.Jitter*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// sleepCtx waits d or until ctx is cancelled; reports whether the full
// delay elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// guardedResponses is one simulation attempt with panic containment: a
// panic anywhere beneath (engine, cache, fault injector) is recovered
// into a *RunPanicError carrying the design-point index, with the stack
// logged under the run's trace ID.
func (p *Problem) guardedResponses(ctx context.Context, i int, coded []float64) (resp map[ResponseID]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			perr := &RunPanicError{Run: i, Value: r, Stack: debug.Stack()}
			obs.FromContext(ctx).Error("sim run panicked",
				"run", i, "panic", fmt.Sprint(r), "stack", string(perr.Stack))
			err = perr
		}
	}()
	return p.ResponsesAt(ctx, coded)
}

// runAttempt is guardedResponses under the problem's per-run deadline.
// The simulator is not preemptible, so on deadline the attempt goroutine
// is abandoned (it finishes in the background and is discarded) and the
// worker moves on instead of being pinned by a hung run.
//
// Deadline semantics — identical for the local pool (RunDesign)
// and the cluster pool (workers entering through RunPoint), which share
// this code path: each attempt gets a fresh RunTimeout budget, and the
// backoff sleeps between attempts (runWithRetry) run on the parent
// context, so they are charged against neither pool's per-run deadline.
// A deadline expiry always surfaces as a retryable *RunTimeoutError, no
// matter which side of the race below observes it first.
func (p *Problem) runAttempt(ctx context.Context, i int, coded []float64) (map[ResponseID]float64, error) {
	if p.RunTimeout <= 0 {
		return p.guardedResponses(ctx, i, coded)
	}
	tctx, cancel := context.WithTimeout(ctx, p.RunTimeout)
	defer cancel()
	type outcome struct {
		resp map[ResponseID]float64
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		r, err := p.guardedResponses(tctx, i, coded)
		ch <- outcome{r, err}
	}()
	select {
	case o := <-ch:
		if err := p.normalizeDeadlineErr(ctx, tctx, i, o.err); err != o.err {
			return nil, err
		}
		return o.resp, o.err
	case <-tctx.Done():
		if ctx.Err() != nil {
			return nil, fmt.Errorf("core: run %d aborted: %w", i, context.Cause(ctx))
		}
		obs.FromContext(ctx).Warn("sim run abandoned past deadline",
			"run", i, "deadline_ms", float64(p.RunTimeout.Microseconds())/1e3)
		return nil, &RunTimeoutError{Run: i, Timeout: p.RunTimeout}
	}
}

// normalizeDeadlineErr unifies the two ways a per-attempt deadline can
// surface. A cancellation-aware runner (the cache's single-flight wait,
// the cluster peer client) may notice tctx's expiry itself and return an
// error wrapping context.DeadlineExceeded through the result channel,
// racing runAttempt's own tctx.Done branch; which side wins is scheduler
// luck, so both must yield the same semantics — the retryable
// *RunTimeoutError. An error is normalized only when it is actually
// deadline-caused (wraps DeadlineExceeded while tctx is expired), the
// parent context is still live (a parent abort stays an abort), and it is
// not already typed. Everything else passes through unchanged.
func (p *Problem) normalizeDeadlineErr(ctx, tctx context.Context, i int, err error) error {
	if err == nil || !errors.Is(err, context.DeadlineExceeded) ||
		tctx.Err() == nil || ctx.Err() != nil {
		return err
	}
	var terr *RunTimeoutError
	if errors.As(err, &terr) {
		return err
	}
	obs.FromContext(ctx).Warn("sim run abandoned past deadline",
		"run", i, "deadline_ms", float64(p.RunTimeout.Microseconds())/1e3)
	return &RunTimeoutError{Run: i, Timeout: p.RunTimeout}
}

// runFaultStats counts the attempts and recovery events of one run.
type runFaultStats struct {
	attempts int
	retries  int
	panics   int
}

// wrapRunErr annotates a failed run's error with its index and, when the
// retry policy was exercised, the attempt count.
func wrapRunErr(i int, st runFaultStats, err error) error {
	if st.attempts > 1 {
		return fmt.Errorf("core: run %d failed after %d attempts: %w", i, st.attempts, err)
	}
	return fmt.Errorf("core: run %d failed: %w", i, err)
}

// runWithRetry executes one design run under the problem's retry policy:
// transient failures (injected faults, recovered panics, per-run
// timeouts) back off exponentially with jitter and retry until the
// attempt budget or the context runs out. Recovery events are counted in
// the returned stats and in the context's obs.FaultStats (when present),
// so daemons can expose them as metrics even for runs that ultimately
// fail.
func (p *Problem) runWithRetry(ctx context.Context, i int, coded []float64) (map[ResponseID]float64, runFaultStats, error) {
	pol := p.Retry.withDefaults()
	fs := obs.FaultStatsFrom(ctx)
	var st runFaultStats
	var rng *rand.Rand // lazily built: most runs never retry
	for attempt := 1; ; attempt++ {
		st.attempts = attempt
		resp, err := p.runAttempt(ctx, i, coded)
		if err == nil {
			return resp, st, nil
		}
		var perr *RunPanicError
		if errors.As(err, &perr) {
			st.panics++
			if fs != nil {
				fs.Panics.Inc()
			}
		}
		if ctx.Err() != nil || attempt >= pol.MaxAttempts || !IsTransient(err) {
			return nil, st, err
		}
		st.retries++
		if fs != nil {
			fs.Retries.Inc()
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(mixSeed(pol.Seed, i)))
		}
		d := pol.delay(attempt, rng)
		obs.FromContext(ctx).Warn("sim run retrying",
			"run", i, "attempt", attempt, "max_attempts", pol.MaxAttempts,
			"backoff_ms", float64(d.Microseconds())/1e3, "err", err.Error())
		if !sleepCtx(ctx, d) {
			return nil, st, fmt.Errorf("core: run %d aborted: %w", i, context.Cause(ctx))
		}
	}
}

// RunStats summarizes the fault-recovery work one design-point run needed
// under the problem's retry policy.
type RunStats struct {
	// Attempts is the total simulation attempts made (>= 1).
	Attempts int
	// Retries counts attempts retried after transient failures.
	Retries int
	// Panics counts engine panics recovered into errors.
	Panics int
}

// RunPoint executes the single design point at index i (coded units) under
// the problem's retry policy and per-run deadline — the same semantics one
// run of RunDesign gets, exposed for callers that shard a design
// across processes (internal/cluster workers run leased points through
// it). The index seeds the retry jitter stream and labels errors, so a
// remote run of point i is bit-identical to the local one.
func (p *Problem) RunPoint(ctx context.Context, i int, coded []float64) (map[ResponseID]float64, RunStats, error) {
	if err := p.Validate(); err != nil {
		return nil, RunStats{}, err
	}
	resp, st, err := p.runWithRetry(ctx, i, coded)
	stats := RunStats{Attempts: st.attempts, Retries: st.retries, Panics: st.panics}
	if err != nil {
		return nil, stats, wrapRunErr(i, st, err)
	}
	return resp, stats, nil
}

// mixSeed decorrelates per-run jitter streams (splitmix64 finalizer).
func mixSeed(seed int64, run int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(run+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

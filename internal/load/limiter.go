// Package load is the overload-resilience toolkit behind the ehdoed
// daemon: per-endpoint admission control (a concurrency semaphore with a
// bounded, deadline-aware wait queue) and an open-loop load generator that
// measures how a server behaves under sustained traffic.
//
// The design goal is predictable degradation: past capacity, requests are
// shed immediately with a machine-readable reason and a retry hint,
// instead of queueing without bound until every caller times out. The
// same shaping argument appears in energy-harvesting networking — a node
// with a finite buffer must gate admission against what it can actually
// serve (Sharma et al., arXiv 0809.3908) and a self-sufficient system is
// designed to degrade gracefully rather than collapse (Bui & Rossi,
// arXiv 1310.7717).
package load

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Gauge is the minimal instrument the limiter publishes live state
// through; *obs.Gauge satisfies it.
type Gauge interface{ Add(delta float64) }

// Shed reasons carried by ShedError.Reason.
const (
	// ReasonQueueFull: every concurrency slot is busy and the wait queue
	// is at capacity.
	ReasonQueueFull = "queue_full"
	// ReasonDeadline: the request's own deadline would expire before a
	// slot could possibly be granted, so it was rejected without waiting
	// (or its context ended while it queued).
	ReasonDeadline = "deadline"
	// ReasonWaitTimeout: the request queued for the limiter's full
	// MaxWait without a slot freeing up.
	ReasonWaitTimeout = "wait_timeout"
)

// ShedError reports an admission rejection: why the request was shed and
// how long the caller should back off before retrying.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("load: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// LimiterConfig bounds one endpoint's concurrent work.
type LimiterConfig struct {
	// MaxConcurrent is the number of requests served at once (min 1).
	MaxConcurrent int
	// MaxQueue bounds the requests allowed to wait for a slot; 0 sheds
	// immediately whenever every slot is busy.
	MaxQueue int
	// MaxWait bounds how long a queued request may wait before it is
	// shed (default 500ms). A request whose own deadline is sooner waits
	// only until that deadline.
	MaxWait time.Duration
	// RetryAfter is the advisory backoff attached to shed errors
	// (default 1s).
	RetryAfter time.Duration
	// InflightGauge and QueueGauge, when set, track the live admitted and
	// queued counts (e.g. obs gauges rendered on /metrics).
	InflightGauge Gauge
	QueueGauge    Gauge
}

// Limiter is a concurrency semaphore with a bounded, deadline-aware wait
// queue. Safe for concurrent use.
type Limiter struct {
	slots      chan struct{}
	maxQueue   int64
	maxWait    time.Duration
	retryAfter time.Duration
	inflight   atomic.Int64
	queued     atomic.Int64
	ig, qg     Gauge
}

// NewLimiter builds a limiter from cfg, applying the documented defaults.
func NewLimiter(cfg LimiterConfig) *Limiter {
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 500 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &Limiter{
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		maxQueue:   int64(cfg.MaxQueue),
		maxWait:    cfg.MaxWait,
		retryAfter: cfg.RetryAfter,
		ig:         cfg.InflightGauge,
		qg:         cfg.QueueGauge,
	}
}

// Inflight reports the number of currently admitted requests.
func (l *Limiter) Inflight() int { return int(l.inflight.Load()) }

// QueueDepth reports the number of requests waiting for a slot.
func (l *Limiter) QueueDepth() int { return int(l.queued.Load()) }

// shed builds the typed rejection.
func (l *Limiter) shed(reason string) error {
	return &ShedError{Reason: reason, RetryAfter: l.retryAfter}
}

func (l *Limiter) admit() func() {
	l.inflight.Add(1)
	if l.ig != nil {
		l.ig.Add(1)
	}
	var released atomic.Bool
	return func() {
		if !released.CompareAndSwap(false, true) {
			return
		}
		<-l.slots
		l.inflight.Add(-1)
		if l.ig != nil {
			l.ig.Add(-1)
		}
	}
}

// Acquire admits the caller, queues it (bounded, deadline-aware), or
// sheds it with a *ShedError. On success the returned release function
// frees the slot (idempotent; call it exactly when the work is done).
// waited is the time spent in the queue — reported for shed requests too,
// so wait-time metrics capture the cost of rejected work.
func (l *Limiter) Acquire(ctx context.Context) (release func(), waited time.Duration, err error) {
	// Fast path: a slot is free right now.
	select {
	case l.slots <- struct{}{}:
		return l.admit(), 0, nil
	default:
	}
	// Saturated: try to join the bounded wait queue.
	if l.maxQueue == 0 {
		return nil, 0, l.shed(ReasonQueueFull)
	}
	for {
		n := l.queued.Load()
		if n >= l.maxQueue {
			return nil, 0, l.shed(ReasonQueueFull)
		}
		if l.queued.CompareAndSwap(n, n+1) {
			break
		}
	}
	if l.qg != nil {
		l.qg.Add(1)
	}
	defer func() {
		l.queued.Add(-1)
		if l.qg != nil {
			l.qg.Add(-1)
		}
	}()
	// Deadline-aware shedding: never wait past the request's own
	// deadline, and reject immediately when that deadline cannot be met
	// at all — the client would only time out holding a queue slot.
	budget := l.maxWait
	deadlineClipped := false
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < budget {
			budget = rem
			deadlineClipped = true
		}
	}
	if budget <= 0 {
		return nil, 0, l.shed(ReasonDeadline)
	}
	start := time.Now()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case l.slots <- struct{}{}:
		return l.admit(), time.Since(start), nil
	case <-ctx.Done():
		return nil, time.Since(start), l.shed(ReasonDeadline)
	case <-timer.C:
		reason := ReasonWaitTimeout
		if deadlineClipped {
			reason = ReasonDeadline
		}
		return nil, time.Since(start), l.shed(reason)
	}
}

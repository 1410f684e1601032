package cluster

import (
	"context"
	"testing"
	"time"
)

// holdConfig holds an empty lease request for a minute, so within a test's
// deadline only a wake can answer it. Heartbeat loss is pushed out of
// reach too: held workers send no heartbeats.
func holdConfig() Config {
	cfg := fastConfig()
	cfg.PollInterval = time.Minute
	cfg.HeartbeatTimeout = time.Minute
	return cfg
}

// holdLease starts a Lease for the worker and returns once the request is
// held. Lease stamps the worker's lastBeat under the mutex before it
// waits, so a fresh stamp means every later wake reaches the request.
func holdLease(t *testing.T, ctx context.Context, c *Coordinator, worker, epoch string) <-chan LeaseResponse {
	t.Helper()
	c.mu.Lock()
	w := c.workers[worker]
	w.lastBeat = w.lastBeat.Add(-time.Millisecond) // any new stamp differs
	before := w.lastBeat
	c.mu.Unlock()

	out := make(chan LeaseResponse, 1)
	go func() { out <- c.Lease(ctx, LeaseRequest{Worker: worker, Epoch: epoch}) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		stamped := !w.lastBeat.Equal(before)
		c.mu.Unlock()
		if stamped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease request never reached the coordinator")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case lr := <-out:
		t.Fatalf("lease answered with no work queued: %+v", lr)
	default:
	}
	return out
}

// awaitLease waits for a held request's answer, failing after limit.
func awaitLease(t *testing.T, out <-chan LeaseResponse, limit time.Duration) LeaseResponse {
	t.Helper()
	select {
	case lr := <-out:
		return lr
	case <-time.After(limit):
		t.Fatalf("held lease not released within %v", limit)
		return LeaseResponse{}
	}
}

// TestLeaseWokenByRunDesign: a held request is answered with a grant as
// soon as a build queues its points, not when the hold bound expires.
func TestLeaseWokenByRunDesign(t *testing.T) {
	c := NewCoordinator(holdConfig())
	defer c.Shutdown()
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	held := holdLease(t, context.Background(), c, "a", reg.Epoch)

	start := time.Now()
	startBuild(c, testDesign(t))
	lr := awaitLease(t, held, 5*time.Second)
	if wait := time.Since(start); wait > 100*time.Millisecond {
		t.Fatalf("grant took %v after the design was queued, want ≤100ms", wait)
	}
	if lr.Lease == nil || len(lr.Lease.Points) != fastConfig().LeasePoints {
		t.Fatalf("woken lease carries no full grant: %+v", lr)
	}
}

// TestLeaseReleasedByShutdown: draining answers held requests with
// Draining at once.
func TestLeaseReleasedByShutdown(t *testing.T) {
	c := NewCoordinator(holdConfig())
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	held := holdLease(t, context.Background(), c, "a", reg.Epoch)
	c.Shutdown()
	if lr := awaitLease(t, held, 5*time.Second); !lr.Draining {
		t.Fatalf("lease released by shutdown: %+v, want Draining", lr)
	}
}

// TestLeaseReleasedByContext: a request whose context ends (the worker
// hung up) is answered empty without waiting out the hold.
func TestLeaseReleasedByContext(t *testing.T) {
	c := NewCoordinator(holdConfig())
	defer c.Shutdown()
	reg, _ := c.Register(RegisterRequest{Worker: "a"})
	ctx, cancel := context.WithCancel(context.Background())
	held := holdLease(t, ctx, c, "a", reg.Epoch)
	cancel()
	if lr := awaitLease(t, held, 5*time.Second); lr.Lease != nil || lr.Gone || lr.Draining {
		t.Fatalf("canceled lease answered %+v, want an empty answer", lr)
	}
}

// TestLeaseWokenByRequeue: a point requeued after a transient failure on
// one worker wakes the other worker's held request, which is granted that
// point.
func TestLeaseWokenByRequeue(t *testing.T) {
	cfg := holdConfig()
	design := testDesign(t)
	cfg.LeasePoints = design.N() // worker a takes the whole design
	c := NewCoordinator(cfg)
	defer c.Shutdown()
	regA, _ := c.Register(RegisterRequest{Worker: "a"})
	regB, _ := c.Register(RegisterRequest{Worker: "b"})
	startBuild(c, design)
	lrA := leaseOrPoll(t, c, "a", regA.Epoch)
	if lrA.Lease == nil || len(lrA.Lease.Points) != design.N() {
		t.Fatalf("worker a lease: %+v", lrA)
	}
	held := holdLease(t, context.Background(), c, "b", regB.Epoch)

	results := runPoints(t, lrA.Lease)
	failed := results[0].Index
	results[0] = PointResult{Index: failed, Error: "injected transient", Transient: true}
	if rr := c.Results(ResultsRequest{Worker: "a", Epoch: regA.Epoch, Lease: lrA.Lease.ID, Results: results}); !rr.OK {
		t.Fatalf("results rejected: %+v", rr)
	}
	lr := awaitLease(t, held, 5*time.Second)
	if lr.Lease == nil || len(lr.Lease.Points) != 1 || lr.Lease.Points[0].Index != failed {
		t.Fatalf("worker b woke with %+v, want a grant of point %d", lr, failed)
	}
}

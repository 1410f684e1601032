package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestGracefulDrain is the SIGTERM-equivalent shutdown scenario: with one
// build in flight and one queued, Shutdown must (1) flip /healthz to 503
// draining, (2) cancel the queued job immediately with a logged reason and
// (3) let the in-flight build finish within the grace period.
func TestGracefulDrain(t *testing.T) {
	var buf lockedBuffer
	logger, err := obs.NewLogger(&buf, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)

	srv, ts := newTestServer(t, Config{
		Problem:  blockingProblem(release, quit),
		QueueCap: 1,
		Logger:   logger,
	})

	// Healthy before the drain.
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("pre-drain healthz: %d %s", resp.StatusCode, body)
	}

	req := BuildRequest{Model: "drain", Design: "ccf", Horizon: 1}
	j1, err := srv.Jobs().Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv.Jobs(), j1.ID, JobRunning)
	j2, err := srv.Jobs().Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		srv.Shutdown(30 * time.Second)
		close(done)
	}()

	// The queued job is cancelled immediately, with a logged reason.
	got := waitState(t, srv.Jobs(), j2.ID, JobCanceled)
	if got.Error != "canceled: server shutting down" {
		t.Fatalf("queued job error %q", got.Error)
	}

	// /healthz reports draining with 503 while the drain is in progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/healthz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never flipped to draining: %d %s", resp.StatusCode, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("draining healthz status %q", health.Status)
	}

	// Release the engine: the in-flight build finishes inside the grace
	// period and its surfaces are registered.
	close(release)
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("shutdown did not drain the in-flight build")
	}
	if got := waitState(t, srv.Jobs(), j1.ID, JobDone); got.Runs == 0 {
		t.Fatalf("drained build lost its stats: %+v", got)
	}
	if _, ok := srv.Registry().Get("drain"); !ok {
		t.Fatal("drained build was not registered")
	}

	// The cancellation left an explanatory log line.
	var sawCancel bool
	for _, m := range buf.Lines() {
		if m["msg"] == "job canceled" && m["job"] == j2.ID {
			reason, _ := m["reason"].(string)
			if !strings.Contains(reason, "shutting down") {
				t.Fatalf("cancel log reason %q lacks shutdown cause", reason)
			}
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatalf("no 'job canceled' log line for %s", j2.ID)
	}

	// New submissions are refused while draining.
	if _, err := srv.Jobs().Submit(context.Background(), req); err != ErrShuttingDown {
		t.Fatalf("post-drain submit: %v, want ErrShuttingDown", err)
	}
}

package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestRunWorkerServesFleetBuild: the real daemon entrypoint joins an
// httptest coordinator, executes a whole design through the genuine
// StandardProblem + cache chain, and drains cleanly when the coordinator
// shuts down.
func TestRunWorkerServesFleetBuild(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		PollInterval:      2 * time.Millisecond,
	})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- runWorker(context.Background(), []string{
			"-coordinator", ts.URL, "-id", "w-cmd", "-cache-size", "64",
		}, &buf)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	p := core.StandardProblem(0.6, 0.5)
	design, err := core.NamedDesign("ccf", len(p.Factors), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := coord.RunDesign(context.Background(), cluster.JobSpec{
		Excite: 0.6, Horizon: 0.5, Responses: p.Responses,
	}, design)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Y) != len(p.Responses) {
		t.Fatalf("fleet build returned %d response columns, want %d", len(ds.Y), len(p.Responses))
	}
	for id, col := range ds.Y {
		if len(col) != design.N() {
			t.Fatalf("response %q has %d rows, want %d", id, len(col), design.N())
		}
	}

	coord.Shutdown()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited after coordinator shutdown")
	}
	if !strings.Contains(buf.String(), "drained cleanly") {
		t.Fatalf("worker output missing the drain notice:\n%s", buf.String())
	}
}

// TestRunWorkerValidation pins the daemon's flag contract.
func TestRunWorkerValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runWorker(context.Background(), nil, &buf); err == nil ||
		!strings.Contains(err.Error(), "-coordinator") {
		t.Fatalf("missing -coordinator must fail, got %v", err)
	}
	if err := runWorker(context.Background(), []string{
		"-coordinator", "http://localhost:1", "-fault-kill", "2",
	}, &buf); err == nil || !strings.Contains(err.Error(), "probability") {
		t.Fatalf("invalid fault probability must fail, got %v", err)
	}
}

// TestRunWorkerConcurrencyDefault: without -concurrency the daemon runs
// one leased point per CPU, as its help text promises, and an explicit
// value is passed through; the coordinator sees either as the worker's
// registered capacity.
func TestRunWorkerConcurrencyDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 3},
		{[]string{"-concurrency", "2"}, 2},
	} {
		coord := cluster.NewCoordinator(cluster.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			PollInterval:      2 * time.Millisecond,
		})
		ts := httptest.NewServer(coord.Handler())
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			var buf bytes.Buffer
			errc <- runWorker(ctx, append([]string{"-coordinator", ts.URL, "-id", "w-cpu"}, tc.args...), &buf)
		}()
		deadline := time.Now().Add(10 * time.Second)
		for coord.LiveWorkers() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("worker never registered")
			}
			time.Sleep(2 * time.Millisecond)
		}
		got := coord.Workers()[0].Capacity
		cancel()
		if err := <-errc; err != nil {
			t.Fatalf("stop: %v", err)
		}
		ts.Close()
		coord.Shutdown()
		if got != tc.want {
			t.Fatalf("args %q: registered capacity %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestRunWorkerStopsOnContext: a cancelled context (the signal path) ends
// the daemon without an error.
func TestRunWorkerStopsOnContext(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	})
	defer coord.Shutdown()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- runWorker(ctx, []string{"-coordinator", ts.URL, "-id", "w-sig"}, &buf)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.LiveWorkers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("signal stop must not be an error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited after cancel")
	}
}

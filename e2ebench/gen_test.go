package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestScheduleStallAccounting drives the open-loop generator against a
// handler that stalls its first request. With one connection every later
// arrival waits behind the stall, so it must be sent late and its latency,
// counted from its due time, must include that wait: timing from send
// alone would hide the stall from every request but the first.
func TestScheduleStallAccounting(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	q := &request{kind: kindPredict, path: "/v1/predict", body: []byte(`{}`)}
	var arr []arrival
	for i := 0; i < 6; i++ {
		arr = append(arr, arrival{due: time.Duration(i) * 20 * time.Millisecond, req: q})
	}
	number(arr, "t")
	clients := readClients(1)
	defer closeClients(clients)
	outs := make([]outcome, len(arr))
	runSchedule(time.Now(), srv.URL, clients, arr, outs, nil, false)

	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("arrival %d: status %d, err %v", i, o.status, o.err)
		}
		late, lat, service := o.sent-arr[i].due, o.done-arr[i].due, o.done-o.sent
		if lat < late || lat < service {
			t.Errorf("arrival %d: latency %v below lateness %v or service %v", i, lat, late, service)
		}
		if i == 0 {
			if service < stall {
				t.Errorf("stalled request took %v, want ≥ %v", service, stall)
			}
			continue
		}
		// Arrival i is due i×20ms but cannot leave before the stall ends.
		if want := stall - arr[i].due; want > 0 && late < want-5*time.Millisecond {
			t.Errorf("arrival %d: lateness %v, want ≥ %v", i, late, want)
		}
		if service > stall/2 {
			t.Errorf("arrival %d: service %v, want it fast once the stall cleared", i, service)
		}
	}
	if outs[1].done-arr[1].due < stall-arr[1].due {
		t.Errorf("latency from due %v does not carry the stall", outs[1].done-arr[1].due)
	}
}

// TestScheduleRatesAndPhases checks the Poisson schedule: arrivals stay in
// their phase, the count tracks rate × duration, and one seed gives one
// schedule.
func TestScheduleRatesAndPhases(t *testing.T) {
	phases := []phase{{rps: 500, dur: 2 * time.Second}, {rps: 2000, dur: time.Second}}
	q := &request{kind: kindPredict}
	next := func() *request { return q }
	a := schedule(rand.New(rand.NewSource(7)), phases, next)
	b := schedule(rand.New(rand.NewSource(7)), phases, next)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	count := [2]int{}
	for i, x := range a {
		if x.due != b[i].due {
			t.Fatalf("same seed, arrival %d due %v vs %v", i, x.due, b[i].due)
		}
		if got := phaseAt(phases, x.due); got != x.phase {
			t.Fatalf("arrival at %v tagged phase %d, lies in %d", x.due, x.phase, got)
		}
		count[x.phase]++
	}
	for i, want := range []int{1000, 2000} {
		if c := count[i]; c < want*9/10 || c > want*11/10 {
			t.Errorf("phase %d: %d arrivals, want about %d", i, c, want)
		}
	}
}

package load

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunClassifiesOutcomes: 2xx is served, 429/503 is shed, transport
// errors and other statuses are failed; rates and quantiles follow.
func TestRunClassifiesOutcomes(t *testing.T) {
	var n atomic.Int64
	rep, err := Run(context.Background(), GenConfig{
		QPS:      400,
		Duration: 250 * time.Millisecond,
		Uniform:  true,
		Seed:     1,
		Targets: []Target{{
			Name: "mixed", Weight: 1,
			Do: func(ctx context.Context) (int, error) {
				switch n.Add(1) % 4 {
				case 0:
					return 429, nil
				case 1:
					return 0, errors.New("conn refused")
				default:
					return 200, nil
				}
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Offered != rep.Served+rep.Shed+rep.Failed {
		t.Fatalf("offered %d != served %d + shed %d + failed %d",
			rep.Offered, rep.Served, rep.Shed, rep.Failed)
	}
	if rep.Served == 0 || rep.Shed == 0 || rep.Failed == 0 {
		t.Fatalf("want every class populated: %+v", rep)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Fatalf("shed rate %g out of (0,1)", rep.ShedRate)
	}
	if rep.GoodputQPS <= 0 || rep.GoodputQPS > rep.OfferedQPS+1e-9 {
		t.Fatalf("goodput %g vs offered %g", rep.GoodputQPS, rep.OfferedQPS)
	}
	if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Fatalf("quantiles out of order: %+v", rep.Latency)
	}
	if len(rep.Hist) != len(histBounds)+1 {
		t.Fatalf("hist has %d buckets, want %d", len(rep.Hist), len(histBounds)+1)
	}
	if last := rep.Hist[len(rep.Hist)-1]; last.Count != rep.Served {
		t.Fatalf("+Inf bucket %d, want served count %d", last.Count, rep.Served)
	}
}

// TestRunOpenLoop: arrivals follow the offered schedule even when the
// server is slow — the generator must not close the loop on completions.
func TestRunOpenLoop(t *testing.T) {
	var inflightPeak, inflight atomic.Int64
	rep, err := Run(context.Background(), GenConfig{
		QPS:      200,
		Duration: 300 * time.Millisecond,
		Uniform:  true,
		Targets: []Target{{
			Name: "slow", Weight: 1,
			Do: func(ctx context.Context) (int, error) {
				n := inflight.Add(1)
				defer inflight.Add(-1)
				for {
					p := inflightPeak.Load()
					if n <= p || inflightPeak.CompareAndSwap(p, n) {
						break
					}
				}
				time.Sleep(50 * time.Millisecond) // far slower than the 5ms arrival spacing
				return 200, nil
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Closed-loop behaviour would cap inflight at 1; open loop stacks
	// arrivals while the slow requests run.
	if p := inflightPeak.Load(); p < 3 {
		t.Fatalf("inflight peak %d; open-loop arrivals should overlap a slow server", p)
	}
	if rep.Served != rep.Offered {
		t.Fatalf("slow-but-healthy server: served %d of %d", rep.Served, rep.Offered)
	}
}

// TestRunDeterministicArrivals: the same seed offers the same number of
// Poisson arrivals.
func TestRunDeterministicArrivals(t *testing.T) {
	cfg := GenConfig{
		QPS:      500,
		Duration: 200 * time.Millisecond,
		Seed:     42,
		Targets:  []Target{{Name: "ok", Weight: 1, Do: func(ctx context.Context) (int, error) { return 200, nil }}},
	}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered != b.Offered {
		t.Fatalf("same seed offered %d then %d arrivals", a.Offered, b.Offered)
	}
}

// TestRunValidation: nonsense configs are rejected up front.
func TestRunValidation(t *testing.T) {
	ok := Target{Name: "ok", Weight: 1, Do: func(ctx context.Context) (int, error) { return 200, nil }}
	cases := []GenConfig{
		{QPS: 0, Duration: time.Second, Targets: []Target{ok}},
		{QPS: 10, Duration: 0, Targets: []Target{ok}},
		{QPS: 10, Duration: time.Second},
		{QPS: 10, Duration: time.Second, Targets: []Target{{Name: "w0", Weight: 0, Do: ok.Do}}},
		{QPS: 10, Duration: time.Second, Targets: []Target{{Name: "noDo", Weight: 1}}},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/apiclient"
	"repro/internal/benchkit"
	"repro/internal/load"
	"repro/internal/serve"
)

// Sustained-QPS serving benchmark: an in-process ehdoed server with a
// deliberately tight admission limit under an open-loop predict stream.
// Three numbers land in the report:
//
//   - serve/SustainedPredict_p50 (benchmark, drift-gated): admitted median
//     latency through the full middleware stack (admission, compute,
//     instrumentation), normalized like every other benchmark so the gate
//     survives machine changes.
//   - sustained_goodput_ratio (speedup, drift-gated): goodput over offered.
//     A healthy server clears this load without shedding (ratio 1.0); if a
//     serving regression pushes latency past the admission limits, sheds
//     eat into goodput, the ratio falls, and the gate trips.
//   - sustained_* stats (ungated): p99, achieved QPS, shed rate — tail
//     numbers too noisy on shared CI runners to gate, recorded for trend.
const (
	sustainedQPS      = 400
	sustainedDuration = 2 * time.Second
)

func benchSustainedQPS(r *benchkit.Report) error {
	saved, err := fitSurfaces()
	if err != nil {
		return fmt.Errorf("fitting surfaces for sustained-qps benchmark: %w", err)
	}
	srv, err := serve.New(serve.Config{
		Load: serve.LoadConfig{
			// Tight: 4 lanes clear 400 QPS only while predict stays fast,
			// so a latency regression converts directly into sheds.
			Surface:    serve.EndpointLimit{MaxConcurrent: 4, MaxQueue: 8, MaxWait: 5 * time.Millisecond},
			RetryAfter: time.Second,
		},
	})
	if err != nil {
		return err
	}
	srv.Registry().Set("bench", saved)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(5 * time.Second)
	}()

	client := apiclient.New(ts.URL, apiclient.Options{MaxAttempts: 1})
	factors := saved.Factors
	var n atomic.Int64
	target := load.Target{
		Name:   "predict",
		Weight: 1,
		Do: func(ctx context.Context) (int, error) {
			seq := n.Add(1)
			pt := make([]float64, len(factors))
			for j, f := range factors {
				frac := float64((seq*31+int64(j)*17)%101) / 100
				pt[j] = f.Min + frac*(f.Max-f.Min)
			}
			res, err := client.Do(ctx, http.MethodPost, "/v1/predict",
				serve.PredictRequest{Model: "bench", Point: pt})
			if err != nil {
				return 0, err
			}
			return res.Status, nil
		},
	}
	rep, err := load.Run(context.Background(), load.GenConfig{
		QPS:      sustainedQPS,
		Duration: sustainedDuration,
		Targets:  []load.Target{target},
		Seed:     1,
		Timeout:  2 * time.Second,
	})
	if err != nil {
		return err
	}
	if rep.Served == 0 {
		return fmt.Errorf("sustained-qps benchmark served nothing (offered %d, failed %d)", rep.Offered, rep.Failed)
	}

	r.AddMetric("serve/SustainedPredict_p50", benchkit.Metric{NsPerOp: rep.Latency.P50 * 1e6})
	if rep.Offered > 0 {
		r.SetSpeedup("sustained_goodput_ratio", float64(rep.Served)/float64(rep.Offered))
	}
	r.SetStat("sustained_p99_ms", rep.Latency.P99)
	r.SetStat("sustained_offered_qps", rep.OfferedQPS)
	r.SetStat("sustained_goodput_qps", rep.GoodputQPS)
	r.SetStat("sustained_shed_rate", rep.ShedRate)
	fmt.Printf("sustained: offered %.0f qps, goodput %.0f qps, shed %.1f%%, p50 %.2fms, p99 %.2fms\n",
		rep.OfferedQPS, rep.GoodputQPS, rep.ShedRate*100, rep.Latency.P50, rep.Latency.P99)
	return nil
}

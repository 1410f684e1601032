package load

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Target is one request kind in the generated mix. Do issues the request
// and reports the HTTP status it got (0 with err != nil for transport
// failures). The generator classifies 2xx as served, 429/503 as shed, and
// everything else as failed.
type Target struct {
	Name   string
	Weight float64
	Do     func(ctx context.Context) (status int, err error)
}

// GenConfig configures one open-loop run: arrivals fire on the schedule
// regardless of completions — exactly how independent clients behave — so
// an overloaded server sees the offered rate, not a closed feedback loop
// that politely slows down with it.
type GenConfig struct {
	// QPS is the offered arrival rate (required, > 0).
	QPS float64
	// Duration bounds the arrival window (required, > 0); in-flight
	// requests are drained before Run returns.
	Duration time.Duration
	// Targets is the weighted request mix (required, non-empty).
	Targets []Target
	// Seed makes the arrival process and mix choices reproducible.
	Seed int64
	// Uniform spaces arrivals evenly instead of the default Poisson
	// (exponential inter-arrival) process.
	Uniform bool
	// Timeout bounds each request (default 5s).
	Timeout time.Duration
}

// Quantiles summarizes a latency population in milliseconds.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// HistBucket is one cumulative latency-histogram bucket; the trailing
// +Inf bucket carries LeMs = -1 (JSON has no infinity).
type HistBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int     `json:"count"`
}

// histBounds are the latency histogram upper bounds in milliseconds; an
// implicit +Inf bucket (LeMs = -1 on the wire) follows.
var histBounds = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// GenReport is the outcome of one run. Latency quantiles cover served
// (admitted, 2xx) requests only: shed requests are designed to be cheap
// and would drag the percentiles of the work that actually completed.
type GenReport struct {
	Offered    int     `json:"offered"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	DurationS  float64 `json:"duration_s"`
	OfferedQPS float64 `json:"offered_qps"`
	// GoodputQPS is served requests per second of the arrival window.
	GoodputQPS float64 `json:"goodput_qps"`
	// ShedRate is shed / offered (0 when nothing was offered).
	ShedRate float64 `json:"shed_rate"`
	// Latency summarizes served-request latency; ShedLatency the time
	// wasted on shed ones (it should be near zero — shedding that queues
	// first defeats the point).
	Latency     Quantiles      `json:"latency_ms"`
	ShedLatency Quantiles      `json:"shed_latency_ms"`
	Hist        []HistBucket   `json:"hist,omitempty"`
	ByTarget    map[string]int `json:"by_target,omitempty"`
}

// Run drives one open-loop load run and aggregates the outcome. The
// context cancels the run early; requests already in flight are drained.
func Run(ctx context.Context, cfg GenConfig) (*GenReport, error) {
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("load: qps %g must be positive", cfg.QPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: duration %s must be positive", cfg.Duration)
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("load: no targets")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var totalWeight float64
	for i, t := range cfg.Targets {
		if t.Weight < 0 || t.Do == nil {
			return nil, fmt.Errorf("load: target %d (%s) needs a non-negative weight and a Do", i, t.Name)
		}
		totalWeight += t.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("load: target weights sum to zero")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		mu       sync.Mutex
		servedMs []float64
		shedMs   []float64
		byTarget = make(map[string]int)
		served   int
		shed     int
		failed   int
	)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(cfg.Duration)
	next := start
	offered := 0
	for {
		// The schedule is drawn sequentially from one seeded source, so a
		// given (seed, qps, duration) always offers the same arrivals.
		step := 1 / cfg.QPS
		if !cfg.Uniform {
			step = rng.ExpFloat64() / cfg.QPS
		}
		next = next.Add(time.Duration(step * float64(time.Second)))
		if next.After(end) {
			break
		}
		if !sleepUntil(ctx, next) {
			break
		}
		tg := pick(cfg.Targets, totalWeight, rng.Float64())
		offered++
		wg.Add(1)
		go func(tg Target) {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			t0 := time.Now()
			status, err := tg.Do(rctx)
			ms := float64(time.Since(t0).Microseconds()) / 1e3
			mu.Lock()
			defer mu.Unlock()
			byTarget[tg.Name]++
			switch {
			case err == nil && status >= 200 && status <= 299:
				served++
				servedMs = append(servedMs, ms)
			case err == nil && (status == 429 || status == 503):
				shed++
				shedMs = append(shedMs, ms)
			default:
				failed++
			}
		}(tg)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &GenReport{
		Offered:     offered,
		Served:      served,
		Shed:        shed,
		Failed:      failed,
		DurationS:   elapsed.Seconds(),
		Latency:     quantiles(servedMs),
		ShedLatency: quantiles(shedMs),
		Hist:        histogram(servedMs),
		ByTarget:    byTarget,
	}
	if elapsed > 0 {
		rep.OfferedQPS = float64(offered) / elapsed.Seconds()
		rep.GoodputQPS = float64(served) / elapsed.Seconds()
	}
	if offered > 0 {
		rep.ShedRate = float64(shed) / float64(offered)
	}
	return rep, nil
}

// sleepUntil waits for the wall clock to reach t; false means the context
// ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		// Open loop: a late scheduler fires the arrival immediately, it
		// never skips it.
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// pick selects a target by cumulative weight from one uniform draw.
func pick(targets []Target, total, u float64) Target {
	x := u * total
	for _, t := range targets {
		x -= t.Weight
		if x < 0 {
			return t
		}
	}
	return targets[len(targets)-1]
}

// quantiles summarizes a sample; the zero value covers an empty one.
func quantiles(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return Quantiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: s[len(s)-1]}
}

// histogram renders the cumulative latency histogram; the trailing +Inf
// bucket carries LeMs = -1 so the JSON stays finite.
func histogram(ms []float64) []HistBucket {
	out := make([]HistBucket, 0, len(histBounds)+1)
	for _, ub := range histBounds {
		n := 0
		for _, v := range ms {
			if v <= ub {
				n++
			}
		}
		out = append(out, HistBucket{LeMs: ub, Count: n})
	}
	out = append(out, HistBucket{LeMs: -1, Count: len(ms)})
	return out
}
